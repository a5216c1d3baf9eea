from random import Random

import pytest

from revcat.cat import FinObject, RelMorphism, compose, dagger, enumerate_homs, join
from revcat.errors import DimensionMismatch
from revcat.functionals import (
    ArgP,
    ArgX,
    Const,
    DaggerFn,
    HomSpace,
    IdentityFn,
    JoinWith,
    PApply,
    PConst,
    PJoin,
    PostCompose,
    PreCompose,
    Seq,
    apply_functional,
    apply_param,
    check_conj_preservation,
    check_fixed_point_adjoint,
    check_pfix_adjoint,
    check_pfix_identity,
    conj,
    conj_param,
    fix_functional,
    pfix_functional,
    random_endo_functional,
    random_param_functional,
)

from checkers import check_fix_pfix_agreement
from oracles import reachability_closure

X3 = FinObject(3)
S3 = HomSpace("rel", X3, X3)
R = RelMorphism.from_pairs(X3, X3, [(0, 1), (1, 2)])
CLOSURE = Seq(PostCompose(R, S3), JoinWith(R))


def rel3(pairs):
    return RelMorphism.from_pairs(X3, X3, pairs)


def spaces(category="rel", n=2):
    obj = FinObject(n)
    return HomSpace(category, obj, obj)


def test_apply_structural_cases():
    h = rel3([(0, 1)])
    assert apply_functional(Const(R, S3), h) == R
    assert apply_functional(IdentityFn(S3), h) == h
    assert apply_functional(PostCompose(rel3([(1, 2)]), S3), h) == rel3([(0, 2)])
    assert apply_functional(PreCompose(rel3([(2, 0)]), S3), h) == rel3([(2, 1)])
    assert apply_functional(DaggerFn(S3), h) == rel3([(1, 0)])
    assert apply_functional(JoinWith(R), h) == join(h, R)
    with pytest.raises(DimensionMismatch):
        apply_functional(Const(R, S3), RelMorphism.bottom(FinObject(2), FinObject(2)))


def exhaustive_check_conj(phi, space):
    """conj(phi) must agree pointwise with h |-> phi(h+)+."""
    conjugate = conj(phi)
    for h in conjugate.dom.morphisms():
        assert apply_functional(conjugate, h) == dagger(
            apply_functional(phi, dagger(h))
        )


def test_conj_rewrites_pointwise():
    space = spaces()
    m = RelMorphism.from_pairs(space.src, space.dst, [(0, 1), (1, 1)])
    exhaustive_check_conj(Const(m, space), space)
    exhaustive_check_conj(PostCompose(m, space), space)
    exhaustive_check_conj(PreCompose(m, space), space)
    exhaustive_check_conj(JoinWith(m), space)
    exhaustive_check_conj(DaggerFn(space), space)
    exhaustive_check_conj(Seq(PostCompose(m, space), JoinWith(m)), space)
    exhaustive_check_conj(JoinOf_example(m, space), space)


def JoinOf_example(m, space):
    from revcat.functionals import JoinOf

    return JoinOf(PostCompose(m, space), Const(m, space))


def test_conj_swaps_pre_and_post_composition():
    space = spaces()
    g = RelMorphism.from_pairs(space.src, space.dst, [(0, 0), (1, 0)])
    conjugate = conj(PostCompose(g, space))
    assert isinstance(conjugate, PreCompose)
    assert conjugate.value == dagger(g)
    for h in space.morphisms():
        assert apply_functional(conjugate, h) == compose(h, dagger(g))


def test_conj_is_involutive_structurally_and_extensionally():
    space = spaces()
    m = RelMorphism.from_pairs(space.src, space.dst, [(1, 0)])
    for phi in (
        Const(m, space),
        PostCompose(m, space),
        Seq(JoinWith(m), DaggerFn(space)),
    ):
        assert conj(conj(phi)) == phi
        for h in space.morphisms():
            assert apply_functional(conj(conj(phi)), h) == apply_functional(phi, h)


def test_conj_distributes_over_seq_in_order():
    space = spaces()
    m = RelMorphism.from_pairs(space.src, space.dst, [(0, 1)])
    phi = PostCompose(m, space)
    psi = JoinWith(m)
    lhs = conj(Seq(phi, psi))
    rhs = Seq(conj(phi), conj(psi))
    for h in space.morphisms():
        assert apply_functional(lhs, h) == apply_functional(rhs, h)


def test_fix_functional_transitive_closure_and_trivia():
    expected = reachability_closure([(0, 1), (1, 2)], 3)
    assert set(fix_functional(CLOSURE).pairs) == expected
    assert fix_functional(Const(R, S3)) == R
    assert fix_functional(IdentityFn(S3)) == RelMorphism.bottom(X3, X3)
    with pytest.raises(DimensionMismatch):
        fix_functional(DaggerFn(HomSpace("rel", FinObject(2), X3)))


def test_fixed_point_adjoint_on_the_closure_witness():
    report = check_fixed_point_adjoint(CLOSURE)
    assert report.passed
    forward = fix_functional(CLOSURE)
    backward = fix_functional(conj(CLOSURE))
    oracle = reachability_closure([(0, 1), (1, 2)], 3)
    assert set(forward.pairs) == oracle
    assert set(backward.pairs) == {(b, a) for (a, b) in oracle}
    assert backward == dagger(forward)


def test_fixed_point_adjoint_const_case():
    report = check_fixed_point_adjoint(Const(R, S3))
    assert report.passed
    assert fix_functional(conj(Const(R, S3))) == dagger(R)


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_fixed_point_adjoint_on_random_trees(category):
    rng = Random(2024)
    checked = skipped = 0
    for _ in range(100):
        x = FinObject(rng.randrange(1, 4))
        y = FinObject(rng.randrange(1, 4))
        phi = random_endo_functional(HomSpace(category, x, y), rng, depth=4)
        report = check_fixed_point_adjoint(phi)
        assert report.passed, report.violations[:1]
        checked += report.checked
        skipped += report.skipped
    assert checked + skipped == 100
    assert checked > 0


def param_psi():
    """psi(x, p) = p join (r' after x) on the 3-element carrier."""
    r_prime = rel3([(1, 2)])
    return PJoin(
        PApply(PostCompose(r_prime, S3), ArgX(S3, S3)),
        ArgP(S3, S3),
    )


def test_pfix_functional_examples():
    psi = param_psi()
    p = rel3([(0, 1)])
    assert set(pfix_functional(psi, p).pairs) == {(0, 1), (0, 2)}
    projection = ArgP(S3, S3)
    assert pfix_functional(projection, p) == p
    ignore = ArgX(S3, S3)
    assert pfix_functional(ignore, p) == RelMorphism.bottom(X3, X3)


def test_apply_param_and_conj_param_pointwise():
    psi = param_psi()
    conjugate = conj_param(psi)
    homs = enumerate_homs("rel", X3, X3)[:40]
    for x in homs[:8]:
        for p in homs[5:13]:
            assert apply_param(conjugate, x, p) == dagger(
                apply_param(psi, dagger(x), dagger(p))
            )
    const = PConst(R, S3, S3)
    assert conj_param(const).value == dagger(R)


def test_pfix_adjoint_exhaustive_over_parameters():
    space = spaces(n=2)
    m = RelMorphism.from_pairs(space.src, space.dst, [(1, 0)])
    psi = PJoin(PApply(PostCompose(m, space), ArgX(space, space)), ArgP(space, space))
    report = check_pfix_adjoint(psi)
    assert report.passed
    assert report.checked == 16

    trivial = ArgP(space, space)
    assert check_pfix_adjoint(trivial).passed


def test_conj_preservation_and_pfix_identity_exhaustive():
    psi = param_psi()
    small_params = enumerate_homs("rel", X3, X3)[:32]
    assert check_conj_preservation(psi, parameters=small_params).passed
    assert check_pfix_identity(psi, parameters=small_params).passed


def test_fix_pfix_derivations_agree():
    report = check_fix_pfix_agreement(CLOSURE, S3, parameters=enumerate_homs("rel", X3, X3)[:16])
    assert report.passed


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_parametrized_theorems_on_random_trees(category):
    rng = Random(77)
    space = spaces(category, 2)
    params = space.morphisms()
    for _ in range(40):
        psi = random_param_functional(space, space, rng, depth=3)
        for checker in (check_pfix_adjoint, check_conj_preservation, check_pfix_identity):
            report = checker(psi, parameters=params)
            assert report.passed, (checker.__name__, report.violations[:1])


def _conj_cases():
    """One node of every class of both DSLs on Hom(1, 2) of rel and pinj, plus
    a Host inside a PApply; conj . conj gives back every node without a Host."""
    from revcat.cat import morphism_from_doc
    from revcat.functionals import Host, JoinOf

    def mor(category, src, dst, pairs):
        if category == "rel":
            doc = {"type": "rel", "src": src, "dst": dst, "pairs": pairs}
        else:
            doc = {"type": "pinj", "src": src, "dst": dst, "map": {str(a): b for a, b in pairs}}
        return morphism_from_doc(doc)

    cases = []
    for category in ("rel", "pinj"):
        d = HomSpace(category, FinObject(1), FinObject(2))
        e = d.flipped()
        m = mor(category, 1, 2, [(0, 1)])
        a = mor(category, 2, 1, [(1, 0)])
        b = mor(category, 2, 2, [(0, 1)])
        host = Host(lambda h, m=m: join(h, m), d, d, name="join-m")
        nodes = [
            ("Const", Const(m, d)),
            ("IdentityFn", IdentityFn(d)),
            ("PreCompose", PreCompose(a, d)),
            ("PostCompose", PostCompose(b, d)),
            ("DaggerFn", DaggerFn(d)),
            ("JoinWith", JoinWith(m)),
            ("Seq", Seq(PostCompose(b, d), JoinWith(m))),
            ("JoinOf", JoinOf(IdentityFn(d), Const(m, d))),
            ("Host", host),
            ("ArgX", ArgX(d, e)),
            ("ArgP", ArgP(d, e)),
            ("PConst", PConst(m, d, e)),
            ("PApply", PApply(DaggerFn(d), PJoin(ArgX(d, d), PConst(m, d, d)))),
            ("PJoin", PJoin(ArgP(d, d), PConst(m, d, d))),
            ("PApply-Host", PApply(Seq(host, DaggerFn(d)), ArgX(d, e))),
        ]
        for name, node in nodes:
            cases.append(pytest.param(node, "Host" not in name, id=f"{category}-{name}"))
    return cases


def _outcome(fn, args):
    from revcat.errors import IncompatibleJoin

    try:
        return fn(*args)
    except IncompatibleJoin:
        return IncompatibleJoin


@pytest.mark.parametrize("node, structural", _conj_cases())
def test_conj_of_every_node_class(node, structural):
    from itertools import product

    from revcat.functionals import FunctionalExpr

    conjugate = conj if isinstance(node, FunctionalExpr) else conj_param
    bar = conjugate(node)
    twice = conjugate(bar)
    if structural:
        assert twice == node
    spaces = (bar.dom,) if isinstance(node, FunctionalExpr) else (bar.arg_space, bar.param_space)
    arguments = list(product(*(space.morphisms() for space in spaces)))
    assert arguments
    for args in arguments:
        daggered = tuple(map(dagger, args))
        assert _outcome(bar, args) == _outcome(lambda *a: dagger(node(*a)), daggered)
        assert _outcome(twice, daggered) == _outcome(node, daggered)
