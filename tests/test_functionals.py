from functools import partial
from random import Random

import pytest

from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import RelMorphism
from revcat.errors import DimensionMismatch, DomainMismatch, IncompatibleJoin, UnboundParameter
from revcat.functionals import expr, fixpoints, naturality, param
from revcat.functionals.expr import (
    Const,
    DaggerFn,
    Host,
    IdentityFn,
    JoinOf,
    JoinWith,
    Param,
    PostCompose,
    PreCompose,
    Seq,
    apply_functional,
    conj,
)
from revcat.functionals.fixpoints import (
    check_conj_preservation,
    check_fixed_point_adjoint,
    check_pfix_adjoint,
    check_pfix_identity,
    fix_functional,
    pfix_functional,
    random_endo_functional,
    random_param_functional,
)
from revcat.functionals.naturality import check_naturality, check_self_conjugate, identity_family, join_family
from revcat.functionals.param import ParamExpr, apply_param, conj_param
from revcat.functionals.trace import trace_family

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
    assert apply_functional(JoinWith(R), h) == h.join(R)
    with pytest.raises(DimensionMismatch):
        apply_functional(Const(R, S3), RelMorphism.bottom(FinObject(2), FinObject(2)))


def exhaustive_check_conj(phi, space):
    """conj(phi) must agree pointwise with h |-> phi(h+)+."""
    conjugate = conj(phi)
    for h in conjugate.dom.morphisms():
        assert apply_functional(conjugate, h) == apply_functional(phi, h.dagger()).dagger()


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
    return JoinOf(PostCompose(m, space), Const(m, space))


def test_conj_swaps_pre_and_post_composition():
    space = spaces()
    g = RelMorphism.from_pairs(space.src, space.dst, [(0, 0), (1, 0)])
    conjugate = conj(PostCompose(g, space))
    assert isinstance(conjugate, PreCompose)
    assert conjugate.value == g.dagger()
    for h in space.morphisms():
        assert apply_functional(conjugate, h) == h.compose(g.dagger())


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
    assert set(fix_functional(CLOSURE).value.pairs) == expected
    assert fix_functional(Const(R, S3)).value == R
    assert fix_functional(IdentityFn(S3)).value == RelMorphism.bottom(X3, X3)
    with pytest.raises(DimensionMismatch):
        fix_functional(DaggerFn(HomSpace("rel", FinObject(2), X3)))


def test_fixed_point_adjoint_on_the_closure_witness():
    report = check_fixed_point_adjoint(CLOSURE)
    assert report.passed
    forward = fix_functional(CLOSURE).value
    backward = fix_functional(conj(CLOSURE)).value
    oracle = reachability_closure([(0, 1), (1, 2)], 3)
    assert set(forward.pairs) == oracle
    assert set(backward.pairs) == {(b, a) for (a, b) in oracle}
    assert backward == forward.dagger()


def test_fixed_point_adjoint_const_case():
    report = check_fixed_point_adjoint(Const(R, S3))
    assert report.passed
    assert fix_functional(conj(Const(R, S3))).value == R.dagger()


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
    return ParamExpr(JoinOf(PostCompose(r_prime, S3), Param(S3, S3)), S3)


def test_pfix_functional_examples():
    psi = param_psi()
    p = rel3([(0, 1)])
    assert set(pfix_functional(psi, p).pairs) == {(0, 1), (0, 2)}
    projection = ParamExpr(Param(S3, S3), S3)
    assert pfix_functional(projection, p) == p
    ignore = ParamExpr(IdentityFn(S3), S3)
    assert pfix_functional(ignore, p) == RelMorphism.bottom(X3, X3)


def test_param_expr_refuses_a_param_leaf_outside_its_parameter_space():
    square, wide = spaces(n=2), HomSpace("rel", FinObject(2), FinObject(3))
    # The leaf sits under a join and a stage.
    body = JoinOf(IdentityFn(square), Seq(Param(square, square), DaggerFn(square)))
    assert ParamExpr(body, square).arg_space is square
    with pytest.raises(DimensionMismatch, match="Param leaf"):
        ParamExpr(body, wide)


@pytest.mark.parametrize(
    "call",
    [apply_functional, lambda phi, h: fix_functional(phi), lambda phi, h: check_fixed_point_adjoint(phi)],
    ids=["apply_functional", "fix_functional", "check_fixed_point_adjoint"],
)
def test_a_one_argument_functional_refuses_a_param_leaf(call):
    # Outside a ParamExpr no parameter reaches the leaf: it used to apply
    # to None, or fail later with an AttributeError or a DomainMismatch.
    square = spaces(n=2)
    h = RelMorphism.identity(square.src)
    for phi in (Param(square, square), JoinOf(IdentityFn(square), Param(square, square))):
        with pytest.raises(UnboundParameter, match=r"^Param\(dom=rel\(2->2\), cod=rel\(2->2\)\) lies outside"):
            call(phi, h)


def test_pfix_functional_checks_the_parameter_before_iterating(monkeypatch):
    iterated = []
    monkeypatch.setattr(fixpoints, "kleene_pfix", lambda *args: iterated.append(args))
    outside = RelMorphism.bottom(FinObject(2), FinObject(2))
    with pytest.raises(DimensionMismatch, match="is not in"):
        pfix_functional(param_psi(), outside)
    assert iterated == []


@pytest.mark.parametrize("checker", [check_pfix_adjoint, check_conj_preservation, check_pfix_identity])
def test_pfix_checkers_look_up_spaces_a_fixed_number_of_times(monkeypatch, checker):
    """psi's spaces are checked once per checker call, not once per
    parameter: Hom(1, 1) has 2 parameters and Hom(2, 2) has 16."""
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    original = expr.space_of
    for module in (expr, param, fixpoints):
        monkeypatch.setattr(module, "space_of", counted)

    def space_of_calls(n):
        space = spaces(n=n)
        c = RelMorphism.identity(space.src)
        psi = ParamExpr(JoinOf(JoinWith(c), JoinOf(Const(c, space), Param(space, space))), space)
        calls.clear()
        report = checker(psi)
        assert report.passed and report.checked == len(space.morphisms())
        return len(calls)

    assert space_of_calls(1) == space_of_calls(2) > 0


def test_fix_functional_refuses_a_host_step_that_leaves_the_hom_set():
    other = RelMorphism.bottom(FinObject(2), FinObject(2))
    escaping = Host(lambda h: other, S3, S3, name="escape")
    with pytest.raises(DomainMismatch):
        fix_functional(escaping)


def test_fixed_points_apply_each_step_without_a_checked_application(monkeypatch):
    checked = []

    def spy(original):
        def counted(*args):
            checked.append(args)
            return original(*args)

        return counted

    for module in (expr, param, fixpoints, naturality):
        for name in ("apply_functional", "apply_param"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
    assert set(fix_functional(CLOSURE).value.pairs) == reachability_closure([(0, 1), (1, 2)], 3)
    assert set(pfix_functional(param_psi(), rel3([(0, 1)])).pairs) == {(0, 1), (0, 2)}
    assert checked == []

    # The checkers draw their arguments from the spaces they check, so they
    # apply nodes unchecked too.
    one, two = FinObject(1), FinObject(2)
    space = spaces(n=2)
    m = RelMorphism.from_pairs(two, two, [(1, 0)])
    psi = ParamExpr(JoinOf(PostCompose(m, space), Param(space, space)), space)
    reports = [
        check_naturality(join_family("rel"), two, one, one, two, fuel=3),
        check_pfix_identity(psi),
        check_self_conjugate(join_family("rel"), two, one),
        check_self_conjugate(identity_family("rel"), two, one),
        check_self_conjugate(trace_family("rel", one), one, one),
    ]
    assert all(report.passed and report.checked > 0 for report in reports)
    assert checked == []


def test_apply_param_and_conj_param_pointwise():
    psi = param_psi()
    conjugate = conj_param(psi)
    homs = S3.morphisms()[:40]
    for x in homs[:8]:
        for p in homs[5:13]:
            assert apply_param(conjugate, x, p) == apply_param(psi, x.dagger(), p.dagger()).dagger()
    const = ParamExpr(Const(R, S3), S3)
    assert conj_param(const).body.value == R.dagger()

    # Seeded random trees: an IncompatibleJoin is a skip, and must then be
    # raised on both sides.
    for category in ("rel", "pinj"):
        space = spaces(category, 2)
        rng = Random(5)
        checked = skipped = 0
        for _ in range(10):
            psi = random_param_functional(space, space, rng, depth=3)
            conjugate = conj_param(psi)
            for x in space.morphisms():
                for p in space.morphisms():
                    lhs = _outcome(partial(apply_param, conjugate), (x, p))
                    rhs = _outcome(lambda a, b: apply_param(psi, a, b).dagger(), (x.dagger(), p.dagger()))
                    assert lhs == rhs, (category, psi, x, p)
                    skipped += lhs is IncompatibleJoin
                    checked += lhs is not IncompatibleJoin
        assert checked > 0
        assert (skipped > 0) == (category == "pinj")


def test_pfix_adjoint_exhaustive_over_parameters():
    space = spaces(n=2)
    m = RelMorphism.from_pairs(space.src, space.dst, [(1, 0)])
    psi = ParamExpr(JoinOf(PostCompose(m, space), Param(space, space)), space)
    report = check_pfix_adjoint(psi)
    assert report.passed
    assert report.checked == 16

    trivial = ParamExpr(Param(space, space), space)
    assert check_pfix_adjoint(trivial).passed


def test_conj_preservation_and_pfix_identity_exhaustive():
    psi = param_psi()
    assert check_conj_preservation(psi).passed
    assert check_pfix_identity(psi).passed


def test_fix_pfix_derivations_agree():
    report = check_fix_pfix_agreement(CLOSURE, S3, parameters=S3.morphisms()[:16])
    assert report.passed


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_parametrized_theorems_on_random_trees(category):
    rng = Random(77)
    space = spaces(category, 2)
    for _ in range(40):
        psi = random_param_functional(space, space, rng, depth=3)
        for checker in (check_pfix_adjoint, check_conj_preservation, check_pfix_identity):
            report = checker(psi)
            assert report.passed, (checker.__name__, report.violations[:1])


def _conj_cases():
    """One node of every class on Hom(1, 2) of rel and pinj, and two-argument
    functionals: a Param leaf and trees of one-argument nodes, one with a Host
    stage.  conj . conj gives back every node without a Host.

    The other two-argument rows are named for the shape they build: ArgX
    ignores the parameter, PConst is constant, PApply runs a stage after a
    join with a constant, PJoin joins the parameter with a constant, and
    PApply-Host runs a Host stage."""
    from revcat.cat.serialize import morphism_from_doc

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
        host = Host(lambda h, m=m: h.join(m), d, d, name="join-m")
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
            ("Param", ParamExpr(Param(d, e), e)),
            ("ArgX", ParamExpr(IdentityFn(d), e)),
            ("PConst", ParamExpr(Const(m, d), e)),
            ("PApply", ParamExpr(Seq(JoinOf(IdentityFn(d), Const(m, d)), DaggerFn(d)), d)),
            ("PJoin", ParamExpr(JoinOf(Param(d, d), Const(m, d)), d)),
            ("PApply-Host", ParamExpr(Seq(host, DaggerFn(d)), e)),
        ]
        for name, node in nodes:
            cases.append(pytest.param(node, "Host" not in name, id=f"{category}-{name}"))
    return cases


def _outcome(fn, args):
    try:
        return fn(*args)
    except IncompatibleJoin:
        return IncompatibleJoin


@pytest.mark.parametrize("node, structural", _conj_cases())
def test_conj_of_every_node_class(node, structural):
    from itertools import product

    from revcat.functionals.expr import FunctionalExpr

    one_argument = isinstance(node, FunctionalExpr)
    conjugate, apply = (conj, apply_functional) if one_argument else (conj_param, apply_param)
    bar = conjugate(node)
    twice = conjugate(bar)
    if structural:
        assert twice == node
    spaces = (bar.dom,) if one_argument else (bar.arg_space, bar.param_space)
    arguments = list(product(*(space.morphisms() for space in spaces)))
    assert arguments
    for args in arguments:
        daggered = tuple(arg.dagger() for arg in args)
        assert _outcome(partial(apply, bar), args) == _outcome(lambda *a: apply(node, *a).dagger(), daggered)
        assert _outcome(partial(apply, twice), daggered) == _outcome(partial(apply, node), daggered)


def test_a_host_conjugate_is_named_for_what_it_conjugates():
    host = Host(lambda h: h, S3, S3, name="id")
    assert conj(host).name == "conj(id)"
    assert conj(conj(host)).name == "conj(conj(id))"
