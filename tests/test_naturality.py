from revcat.cat import FinObject, RelMorphism, compose, dagger
from revcat.functionals import (
    DisjointUnionWith,
    IdentityFunctor,
    check_naturality,
    check_self_conjugate,
    identity_family,
    join_family,
    pad_with_identity,
    pfix_functional,
    projection_family,
    trace_family,
)

from checkers import check_dagger_functor, postcompose_family

O1, O2 = FinObject(1), FinObject(2)


def test_functor_descriptors_preserve_dagger():
    assert check_dagger_functor(IdentityFunctor(), "rel").passed
    assert check_dagger_functor(DisjointUnionWith(O1), "rel").passed
    assert check_dagger_functor(DisjointUnionWith(O2), "pinj", sizes=(0, 1, 2)).passed


def test_pad_with_identity_blocks():
    f = RelMorphism.from_pairs(O2, O1, [(0, 0)])
    padded = pad_with_identity(f, O2)
    assert set(padded.pairs) == {(0, 0), (2, 1), (3, 2)}
    g = RelMorphism.from_pairs(O1, O2, [(0, 1)])
    assert dagger(pad_with_identity(g, O1)) == pad_with_identity(dagger(g), O1)
    assert compose(pad_with_identity(dagger(g), O1), pad_with_identity(g, O1)) == \
        pad_with_identity(compose(dagger(g), g), O1)


def test_join_family_is_natural_with_identity_functors():
    report = check_naturality(join_family("rel"), O2, O1, O1, O2, fuel=6)
    assert report.passed
    assert report.by_law["family-square"] > 0
    assert report.by_law["iterate-square"] > 0
    assert report.by_law["pfix-square"] > 0


def test_join_family_is_natural_with_disjoint_union_functor():
    family = join_family("rel", DisjointUnionWith(O1))
    report = check_naturality(family, O1, O1, O1, O1, fuel=6)
    assert report.passed


def test_projection_family_squares_commute_and_pfix_is_identity():
    family = projection_family("rel")
    report = check_naturality(family, O2, O1, O1, O2, fuel=4)
    assert report.passed
    component = family.component(O2, O2)
    for p in component.param_space.morphisms():
        assert pfix_functional(component, p) == p


def test_projection_family_on_pinj():
    report = check_naturality(projection_family("pinj"), O2, O1, O1, O2, fuel=4)
    assert report.passed


def test_identity_family_is_self_conjugate():
    report = check_self_conjugate(identity_family("rel"), O2, O1)
    assert report.passed
    assert report.by_law["formulations-agree"] == report.by_law["dagger-preservation"]


def test_join_family_is_self_conjugate_as_two_argument_family():
    report = check_self_conjugate(join_family("rel"), O2, O2)
    assert report.passed


def test_trace_family_is_self_conjugate():
    report = check_self_conjugate(trace_family("pinj", O2), O1, O1)
    assert report.passed
    report = check_self_conjugate(trace_family("rel", O1), O1, O2)
    assert report.passed


def test_pfix_of_a_self_conjugate_family_is_self_conjugate():
    # the family is self-conjugate, so its parametrized fixed point must be:
    # (pfix a_{X,Y})(p)+ = (pfix a_{Y,X})(p+) across mirrored components
    from revcat.cat import dagger

    for family in (join_family("rel"), join_family("rel", DisjointUnionWith(O1))):
        assert check_self_conjugate(family, O2, O1).passed
        a_xy = family.component(O2, O1)
        a_yx = family.component(O1, O2)
        for p in a_xy.param_space.morphisms():
            lhs = dagger(pfix_functional(a_xy, p))
            rhs = pfix_functional(a_yx, dagger(p))
            assert lhs == rhs


def test_non_hermitian_postcompose_family_is_caught():
    c = RelMorphism.from_pairs(O2, O2, [(0, 1)])  # c+ differs from c
    report = check_self_conjugate(postcompose_family("rel", c), O2, O2)
    assert not report.passed
    # both formulations flag the same instances
    assert report.by_law["formulations-agree"] == report.by_law["dagger-preservation"]
    agree_failures = [v for v in report.violations if v.law == "formulations-agree"]
    assert not agree_failures
