from collections import Counter

import pytest

from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import RelMorphism
from revcat.errors import DimensionMismatch, TooLarge
from revcat.functionals import fixpoints
from revcat.functionals.expr import Param
from revcat.functionals.fixpoints import pfix_functional
from revcat.functionals.functors import DisjointUnionWith, IdentityFunctor, pad_with_identity
from revcat.functionals.naturality import (
    NaturalFamily,
    check_naturality,
    check_self_conjugate,
    identity_family,
    join_family,
    projection_family,
)
from revcat.functionals.param import ParamExpr
from revcat.functionals.trace import trace_family
from revcat.order import kleene_pfix

from checkers import (
    check_dagger_functor,
    check_diagonal,
    check_dinaturality,
    mixed_family,
    postcompose_family,
    restricted_join_family,
)
from oracles import reference_naturality

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
    assert pad_with_identity(g, O1).dagger() == pad_with_identity(g.dagger(), O1)
    assert pad_with_identity(g.dagger(), O1).compose(pad_with_identity(g, O1)) == \
        pad_with_identity(g.dagger().compose(g), O1)


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


@pytest.mark.parametrize(
    "family, objects, fuel",
    [
        (projection_family("rel"), (O2, O1, O1, O2), 10),
        (join_family("rel"), (O2, O1, O1, O2), 10),
        (join_family("rel", DisjointUnionWith(O1)), (O2, O1, O1, O2), 10),
        (projection_family("pinj"), (O2, O1, O1, O2), 4),
        (join_family("pinj"), (O2, O1, O1, O2), 4),
        (join_family("pinj", DisjointUnionWith(O1)), (O2, O1, O1, O2), 4),
        (mixed_family(), (O2, O2, O2, O1), 4),
        # Both components on one hom-set, so their values share ids.
        (join_family("rel"), (O1, O1, O2, O2), 10),
        (join_family("pinj"), (O2, O2, O2, O2), 4),
        (projection_family("rel"), (O2, O2, O1, O1), 10),
        (restricted_join_family(), (O1, O1, O1, O2), 10),
    ],
    ids=["rel-projection", "rel-join", "rel-join-padded", "pinj-projection", "pinj-join",
         "pinj-join-padded", "rel-mixed", "rel-join-same-space", "pinj-join-same-space",
         "rel-projection-same-space", "rel-restricted-join"],
)
def test_naturality_agrees_with_the_plain_loop(family, objects, fuel):
    report = check_naturality(family, *objects, fuel=fuel)
    reference = reference_naturality(family, *objects, fuel=fuel)
    assert report.to_doc() == reference.to_doc()
    assert [(v.law, v.witness) for v in report.violations] == \
        [(v.law, v.witness) for v in reference.violations]


def test_naturality_oracle_cases_reach_skips_and_violations():
    pinj_join = check_naturality(join_family("pinj"), O2, O1, O1, O2, fuel=4)
    padded = check_naturality(join_family("pinj", DisjointUnionWith(O1)), O2, O1, O1, O2, fuel=4)
    assert (pinj_join.skipped, padded.skipped) == (18, 864)
    assert check_naturality(mixed_family(), O2, O2, O2, O1, fuel=4).violations


def test_naturality_applies_alpha_once_per_argument_pair(monkeypatch):
    fuel = 4
    # pinj's join raises IncompatibleJoin on some pairs; such a pair is
    # applied again at each instance that needs it, so only applications
    # and fixed points that return are counted.
    for family in (join_family("rel", DisjointUnionWith(O1)), join_family("pinj")):
        alpha = family.component(O2, O1)
        h_count = len(alpha.arg_space.morphisms())
        p_homs = alpha.param_space.morphisms()
        alpha_p = family.component(O1, O2)
        applied, fixed = Counter(), Counter()
        applied_p, fixed_p, iterating = Counter(), Counter(), []
        # alpha and alpha' apply as their bodies: a join at the root of the tree.
        apply = type(alpha.body).apply

        def apply_spy(node, h, p=None):
            result = apply(node, h, p)
            if node == alpha.body:
                applied[h, p] += 1
            elif node == alpha_p.body and not iterating:
                applied_p[h, p] += 1
            return result

        def pfix_spy(step, p, space, policy=None):
            owner = getattr(step, "__self__", None)
            iterating.append(owner)
            try:
                result = kleene_pfix(step, p, space, policy)
            finally:
                iterating.pop()
            if owner == alpha.body:
                fixed[p] += 1
            elif owner == alpha_p.body:
                fixed_p[p] += 1
            return result

        # Every application of alpha, checked or not, including the steps of
        # its parametrized fixed points; every application of alpha' outside
        # its fixed points; every fixed point iterated on alpha or alpha'.
        with monkeypatch.context() as patch:
            patch.setattr(type(alpha.body), "apply", apply_spy)
            patch.setattr(fixpoints, "kleene_pfix", pfix_spy)
            report = check_naturality(family, O2, O1, O1, O2, fuel=fuel)
        assert report.passed and report.by_law["pfix-square"] > 0
        assert report.skipped == (18 if family.category == "pinj" else 0)
        assert sum(applied.values()) <= h_count * len(p_homs) + fuel * len(p_homs)
        assert set(fixed) <= set(p_homs)
        assert max(fixed.values()) == 1
        # alpha' is applied once per distinct (argument, parameter) pair, and
        # its fixed point iterated once per distinct transported parameter.
        G = family.G
        transported = {
            G.apply_mor(v).compose(p.compose(G.apply_mor(u)))
            for u in HomSpace(family.category, O1, O2).morphisms()
            for v in HomSpace(family.category, O1, O2).morphisms()
            for p in p_homs
        }
        assert applied_p and sum(applied_p.values()) == len(applied_p)
        assert {p for _, p in applied_p} <= transported
        assert fixed_p and set(fixed_p) <= transported
        assert max(fixed_p.values()) == 1


def test_naturality_lists_no_hom_set_of_the_second_component():
    # alpha' lives on Hom(3, 4), whose 2^12 relations exceed the enumeration
    # cap, so its tables must be keyed by the values it meets.
    objects = (O1, FinObject(3), O1, FinObject(4))
    with pytest.raises(TooLarge):
        HomSpace("rel", FinObject(3), FinObject(4)).morphisms()
    report = check_naturality(join_family("rel"), *objects)
    assert report.passed
    assert report.by_law == {"family-square": 512, "iterate-square": 2560, "pfix-square": 256}
    assert report.to_doc() == reference_naturality(join_family("rel"), *objects).to_doc()


def test_naturality_refuses_a_non_endo_family_before_listing_a_hom_set():
    # alpha(h, p) = p with p in Hom(y, x), which is not h's hom-set, so
    # alpha has no fixed point in h.  The transports u lie in Hom(4, 3),
    # past the enumeration cap, so listing it first would raise TooLarge.
    def component(x: FinObject, y: FinObject) -> ParamExpr:
        space = HomSpace("rel", x, y)
        return ParamExpr(Param(space, space.flipped()), space.flipped())

    family = NaturalFamily("flipped-projection", "rel", IdentityFunctor(), IdentityFunctor(), component)
    with pytest.raises(DimensionMismatch, match="not endo"):
        check_naturality(family, FinObject(3), FinObject(4), O1, O2)


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_kleene_fixed_points_satisfy_dinaturality_and_the_diagonal_identity(category):
    # Two of the Conway identities of an iteration category, each also in
    # its dagger form, which is defined exactly where the direct one is.
    # Hom-sets of size 3 give chains long enough for the diagonal identity
    # to tell a wrong engine apart.
    for check in (check_dinaturality, check_diagonal):
        report = check(category, seeds=range(1, 11))
        assert report.passed, report.violations[:3]
        assert report.checked > 250
        assert len(set(report.by_law.values())) == 1


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
    for family in (join_family("rel"), join_family("rel", DisjointUnionWith(O1))):
        assert check_self_conjugate(family, O2, O1).passed
        a_xy = family.component(O2, O1)
        a_yx = family.component(O1, O2)
        for p in a_xy.param_space.morphisms():
            lhs = pfix_functional(a_xy, p).dagger()
            rhs = pfix_functional(a_yx, p.dagger())
            assert lhs == rhs


def test_non_hermitian_postcompose_family_is_caught():
    c = RelMorphism.from_pairs(O2, O2, [(0, 1)])  # c+ differs from c
    report = check_self_conjugate(postcompose_family("rel", c), O2, O2)
    assert not report.passed
    # both formulations flag the same instances
    assert report.by_law["formulations-agree"] == report.by_law["dagger-preservation"]
    agree_failures = [v for v in report.violations if v.law == "formulations-agree"]
    assert not agree_failures
