"""The checkers must be able to fail: feed them deliberately broken input."""
from revcat.cat import FinObject, RelMorphism, dagger
from revcat.functionals import (
    ArgP,
    ArgX,
    HomSpace,
    Host,
    IdentityFunctor,
    NaturalFamily,
    PJoin,
    check_fixed_point_adjoint,
    check_naturality,
    check_pfix_adjoint,
    check_pfix_identity,
    check_self_conjugate,
    fix_functional,
)
from revcat.functionals.expr import JoinWith, PostCompose, PreCompose, Seq

from checkers import check_fix_pfix_agreement


def test_non_natural_family_is_flagged():
    # join on the square components, projection elsewhere: transport between
    # the two shapes cannot commute
    def component(x: FinObject, y: FinObject):
        space = HomSpace("rel", x, y)
        if x.size == y.size == 2:
            return PJoin(ArgX(space, space), ArgP(space, space))
        return ArgP(space, space)

    broken = NaturalFamily("mixed", "rel", IdentityFunctor(), IdentityFunctor(), component)
    report = check_naturality(broken, FinObject(2), FinObject(2), FinObject(2), FinObject(1), fuel=4)
    assert not report.passed


def test_a_wrong_symbolic_conjugate_would_be_caught():
    # the correct conjugate swaps pre/post composition; keeping PostCompose
    # (a plausible rewrite bug) yields a different fixed point, so the
    # adjoint equality being checked is not vacuous
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    m = RelMorphism.from_pairs(x, x, [(0, 1)])
    j = RelMorphism.from_pairs(x, x, [(0, 0)])
    phi = Seq(PostCompose(m, space), JoinWith(j))

    right = Seq(PreCompose(dagger(m), space), JoinWith(dagger(j)))
    wrong = Seq(PostCompose(dagger(m), space), JoinWith(dagger(j)))

    target = dagger(fix_functional(phi))
    assert fix_functional(right) == target
    assert fix_functional(wrong) != target
    assert check_fixed_point_adjoint(phi).passed


def test_host_wrapper_satisfies_the_adjoint_law_by_construction():
    # opaque functionals are conjugated extensionally, so the fixed-point
    # adjoint law holds for them automatically, monotone or not: the
    # backward iteration mirrors the forward one step by step
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    skew = RelMorphism.from_pairs(x, x, [(0, 1)])

    def weird(h):
        return skew if h == RelMorphism.bottom(x, x) else h

    assert check_fixed_point_adjoint(Host(weird, space, space)).passed
    assert check_pfix_adjoint(
        PJoin(
            ArgP(space, space),
            ArgX(space, space),
        )
    ).passed


def test_self_conjugacy_check_flags_a_skewed_one_argument_family():
    x = FinObject(2)

    def component(a: FinObject, b: FinObject):
        space = HomSpace("rel", a, b)
        skew = RelMorphism.from_pairs(b, b, [(0, 1)])
        return Seq(PostCompose(skew, space), JoinWith(skew))

    family = NaturalFamily("skewed", "rel", IdentityFunctor(), IdentityFunctor(), component)
    report = check_self_conjugate(family, x, x)
    assert not report.passed
    agree = [v for v in report.violations if v.law == "formulations-agree"]
    assert not agree  # both formulations flag the same witnesses


def test_iteration_identity_registry_is_keyed_by_name():
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    psi = PJoin(ArgX(space, space), ArgP(space, space))
    report = check_pfix_identity(psi)
    assert report.suite == "pfix-identity"
    assert report.passed
    from revcat.functionals import IdentityFn

    report = check_fix_pfix_agreement(IdentityFn(space), space)
    assert report.suite == "fix-pfix-derivations"
    assert report.passed
