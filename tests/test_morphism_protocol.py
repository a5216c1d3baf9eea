"""The protocol shared by the three morphism classes."""
from dataclasses import fields

import pytest

from revcat.cat import (
    FinObject,
    PInjMorphism,
    RelMorphism,
    StochMorphism,
    bottom,
    enumerate_homs,
    morphism_from_doc,
)
from revcat.errors import UnsupportedOperation


@pytest.mark.parametrize("cls, body", [(RelMorphism, "rows"), (PInjMorphism, "table")])
def test_category_is_a_class_constant_not_a_field(cls, body):
    f = cls.identity(FinObject(1))
    assert [fld.name for fld in fields(cls)] == ["src", "dst", body]
    assert "category" not in repr(f)
    assert morphism_from_doc(f.to_doc()) == f
    assert f.to_doc()["type"] == f.category == cls.category


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_blocks_of_a_block_sum_give_back_the_summands(category):
    one, two = FinObject(1), FinObject(2)
    for f in enumerate_homs(category, one, two):
        for g in enumerate_homs(category, two, one):
            s = f.block_sum(g)
            assert (s.src.size, s.dst.size) == (3, 3)
            assert s.block(0, 1, 0, 2) == f
            assert s.block(1, 3, 2, 3) == g
            assert s.block(0, 1, 2, 3) == bottom(category, one, one)
            assert s.block(1, 3, 0, 2) == bottom(category, two, two)


def test_dstoch_has_no_blocks():
    x = StochMorphism.identity(FinObject(2))
    assert x.category == "dstoch"
    with pytest.raises(UnsupportedOperation):
        x.block(0, 1, 0, 1)
    with pytest.raises(UnsupportedOperation):
        x.block_sum(x)
