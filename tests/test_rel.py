import pytest
from hypothesis import given, strategies as st

from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import RelMorphism
from revcat.errors import DimensionMismatch

from oracles import all_relations, compose_pairs

X2 = FinObject(2)
X3 = FinObject(3)


def rel(pairs, src=X2, dst=X2):
    return RelMorphism.from_pairs(src, dst, pairs)


def pair_sets(n=2, m=2):
    cells = [(i, j) for i in range(n) for j in range(m)]
    return st.sets(st.sampled_from(cells))


def test_compose_matches_middle_enumeration():
    g = rel([(1, 0)])
    f = rel([(0, 1)])
    assert set(g.compose(f).pairs) == compose_pairs({(1, 0)}, {(0, 1)}) == {(0, 0)}


@given(pair_sets())
def test_identity_laws(pairs):
    f = rel(sorted(pairs))
    i = RelMorphism.identity(X2)
    assert i.compose(f) == f
    assert f.compose(i) == f


@given(pair_sets(), pair_sets(), pair_sets())
def test_compose_associative_and_dagger_antihomomorphic(a, b, c):
    f, g, h = rel(sorted(a)), rel(sorted(b)), rel(sorted(c))
    assert h.compose(g.compose(f)) == h.compose(g).compose(f)
    assert g.compose(f).dagger() == f.dagger().compose(g.dagger())


def test_dagger_is_converse_and_involutive():
    assert rel([(0, 1)]).dagger() == rel([(1, 0)])
    for pairs in all_relations(2, 2):
        f = rel(sorted(pairs))
        assert f.dagger().dagger() == f
        assert set(f.dagger().pairs) == {(b, a) for a, b in pairs}


def test_leq_is_subset_and_bottom_is_least():
    assert rel([(0, 1)]).leq(rel([(0, 1), (1, 1)]))
    assert not rel([(0, 0)]).leq(rel([(0, 1)]))
    bottom = RelMorphism.bottom(X2, X2)
    for pairs in all_relations(2, 2):
        assert bottom.leq(rel(sorted(pairs)))


def test_join_is_union_and_bottom_is_unit():
    assert rel([(0, 1)]).join(rel([(1, 0)])) == rel([(0, 1), (1, 0)])
    f = rel([(0, 0), (1, 1)])
    assert f.join(RelMorphism.bottom(X2, X2)) == f


def test_strict_composition():
    bottom = RelMorphism.bottom(X2, X2)
    for pairs in all_relations(2, 2):
        f = rel(sorted(pairs))
        assert bottom.compose(f) == bottom
        assert f.compose(bottom) == bottom


def test_enumeration_counts():
    assert len(HomSpace("rel", FinObject(1), FinObject(1)).morphisms()) == 2
    assert len(HomSpace("rel", X2, X2).morphisms()) == 16
    homs = HomSpace("rel", X2, X2).morphisms()
    assert len(set(homs)) == 16  # each exactly once


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        rel([(0, 0)]).compose(RelMorphism.bottom(X2, X3))
    with pytest.raises(DimensionMismatch):
        RelMorphism.from_pairs(X2, X2, [(0, 5)])
    with pytest.raises(DimensionMismatch):
        rel([(0, 0)]).leq(RelMorphism.bottom(X3, X3))
