"""The protocol shared by the three morphism classes."""
from dataclasses import fields

import pytest

from revcat.cat import (
    FinObject,
    HomSpace,
    PInjMorphism,
    RelMorphism,
    StochMorphism,
    morphism_from_doc,
)
from revcat.cat.ops import MORPHISM_CLASSES
from revcat.errors import DimensionMismatch, UnsupportedOperation
from revcat.functionals import JoinWith
from revcat.order import kleene_fix

X2 = FinObject(2)


@pytest.mark.parametrize("cls, body", [(RelMorphism, "rows"), (PInjMorphism, "table")])
def test_category_is_a_class_constant_not_a_field(cls, body):
    f = cls.identity(FinObject(1))
    assert [fld.name for fld in fields(cls)] == ["src", "dst", body]
    assert "category" not in repr(f)
    assert morphism_from_doc(f.to_doc()) == f
    assert f.to_doc()["type"] == f.category == cls.category


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_blocks_of_a_block_sum_give_back_the_summands(category):
    # Blocks are cut in rel, where the trace cuts them.
    one, two = FinObject(1), FinObject(2)
    for f in HomSpace(category, one, two).morphisms():
        for g in HomSpace(category, two, one).morphisms():
            s = f.block_sum(g).to_rel()
            assert (s.src.size, s.dst.size) == (3, 3)
            assert s.block(0, 1, 0, 2) == f.to_rel()
            assert s.block(1, 3, 2, 3) == g.to_rel()
            assert s.block(0, 1, 2, 3) == RelMorphism.bottom(one, one)
            assert s.block(1, 3, 0, 2) == RelMorphism.bottom(two, two)


def test_dstoch_has_no_blocks():
    x = StochMorphism.identity(FinObject(2))
    assert x.category == "dstoch"
    with pytest.raises(UnsupportedOperation):
        x.block_sum(x)


# Blocks exist on rel only.
@pytest.mark.parametrize("f", [RelMorphism.identity(X2)], ids=["rel"])
@pytest.mark.parametrize(
    "ranges", [(0, 2, 0, 5), (0, 2, 1, 5), (0, 2, -1, 1), (-1, 1, 0, 2), (0, 3, 0, 2), (1, 0, 0, 2)]
)
def test_block_ranges_must_fit_on_both_axes(f, ranges):
    with pytest.raises(DimensionMismatch):
        f.block(*ranges)


@pytest.mark.parametrize("cls", [RelMorphism, PInjMorphism])
def test_rel_embedding_round_trips(cls):
    for x in range(3):
        for y in range(3):
            for f in cls.homs(FinObject(x), FinObject(y)):
                r = f.to_rel()
                assert isinstance(r, RelMorphism) and cls.from_rel(r) == f


@pytest.mark.parametrize(
    "pairs", [[(0, 0), (0, 1)], [(0, 1), (1, 1)]], ids=["not-a-map", "not-injective"]
)
def test_pinj_refuses_a_relation_that_is_not_a_partial_injection(pairs):
    with pytest.raises(DimensionMismatch):
        PInjMorphism.from_rel(RelMorphism.from_pairs(X2, X2, pairs))


def test_dstoch_has_no_rel_embedding_and_no_enumeration():
    with pytest.raises(UnsupportedOperation):
        StochMorphism.identity(X2).to_rel()
    with pytest.raises(UnsupportedOperation):
        StochMorphism.homs(X2, X2)


@pytest.mark.parametrize("category", ["rel", "pinj", "dstoch"])
def test_hom_domains_are_read_off_the_class(category):
    domain = HomSpace(category, X2, X2)
    cls = type(domain.bottom)
    assert cls.category == category
    assert (domain.metric is not None) == hasattr(cls, "distance") == (category == "dstoch")
    assert cls.has_joins == (category != "dstoch")
    # The engine stops by the metric where there is one.
    assert (kleene_fix(lambda m: m, domain).residual is not None) == hasattr(cls, "distance")
    f = cls.identity(X2)
    assert domain.contains(f) and not domain.contains(cls.identity(FinObject(1)))
    assert domain.bottom.leq(f) and f.leq(f, 0.0)
    assert cls.sup([domain.bottom, f]) == f
    if cls.has_joins:
        assert domain.morphisms() == tuple(cls.homs(X2, X2))


def test_join_with_refuses_a_category_without_joins():
    with pytest.raises(UnsupportedOperation, match="dstoch"):
        JoinWith(StochMorphism.identity(X2))
    assert JoinWith(RelMorphism.identity(X2)).dom == HomSpace("rel", X2, X2)


def _pair(category, obj):
    """Two morphisms on ``obj``, the second above the first."""
    cls = MORPHISM_CLASSES[category]
    if category == "dstoch":
        return cls(obj, obj, ((0.25, 0.0), (0.0, 0.25))), cls(obj, obj, ((0.5, 0.0), (0.0, 0.5)))
    return cls.bottom(obj, obj), cls.identity(obj)


@pytest.mark.parametrize("category", ["rel", "pinj", "dstoch"])
def test_equal_objects_that_are_distinct_instances_still_match(category):
    a, b = FinObject(2), FinObject(2)
    assert a is not b
    f, g = _pair(category, a)
    f_b, g_b = _pair(category, b)
    assert g_b.compose(f) == f.compose(g_b)
    assert f.leq(g_b) and not g_b.leq(f)
    if MORPHISM_CLASSES[category].has_joins:
        assert f.join(g_b) == g_b.join(f) == g
    space = HomSpace(category, FinObject(2), FinObject(2))
    assert space.src is not b and space.contains(f_b) and space.contains(g_b)
