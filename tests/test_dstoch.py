from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revcat.cat.dstoch import StochMorphism, random_chain, random_ordered_pair, random_stoch
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.serialize import loads_morphism
from revcat.errors import DimensionMismatch, ParseError, UnsupportedOperation

from oracles import (
    stoch_compose,
    stoch_dagger,
    stoch_random,
    stoch_random_chain,
    stoch_random_ordered_pair,
    stoch_valid,
)

X2 = FinObject(2)


def test_invariants_enforced_at_construction():
    with pytest.raises(DimensionMismatch):
        StochMorphism(X2, X2, [[-0.2, 0.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        StochMorphism(X2, X2, [[0.8, 0.8], [0.0, 0.0]])  # row sum > 1
    with pytest.raises(DimensionMismatch):
        StochMorphism(X2, X2, [[0.8, 0.0], [0.8, 0.0]])  # column sum > 1
    with pytest.raises(DimensionMismatch):
        StochMorphism(X2, FinObject(3), np.zeros((2, 3)))


def test_compose_is_matrix_product_in_diagram_order():
    f = StochMorphism(X2, X2, [[0.5, 0.25], [0.25, 0.5]])
    g = StochMorphism(X2, X2, [[0.3, 0.2], [0.2, 0.3]])
    assert np.allclose(g.compose(f).rows, stoch_compose(g.rows, f.rows))


def test_dagger_is_transpose_and_order_is_entrywise():
    f = StochMorphism(X2, X2, [[0.1, 0.4], [0.3, 0.2]])
    assert np.array_equal(f.dagger().rows, stoch_dagger(f.rows))
    smaller = StochMorphism(X2, X2, [[0.05, 0.4], [0.3, 0.1]])
    assert smaller.leq(f)
    assert not f.leq(smaller)
    one_by_one_a = StochMorphism(FinObject(1), FinObject(1), [[0.3]])
    one_by_one_b = StochMorphism(FinObject(1), FinObject(1), [[0.2]])
    assert not one_by_one_a.leq(one_by_one_b)


def test_joins_and_enumeration_are_not_provided():
    f = random_stoch(X2, Random(0))
    with pytest.raises(UnsupportedOperation):
        f.join(f)
    with pytest.raises(UnsupportedOperation):
        HomSpace("dstoch", X2, X2).morphisms()


def test_invariants_preserved_by_compose_dagger_and_sup():
    rng = Random(11)
    for _ in range(200):
        f = random_stoch(X2, rng)
        g = random_stoch(X2, rng)
        for candidate in (g.compose(f), f.dagger()):
            m = np.array(candidate.rows)
            assert np.all(m >= -1e-12)
            assert np.all(m.sum(axis=0) <= 1 + 1e-9)
            assert np.all(m.sum(axis=1) <= 1 + 1e-9)
        chain = random_chain(X2, rng, 4)
        sup = StochMorphism.sup(chain)
        m = np.array(sup.rows)
        assert np.all(m.sum(axis=0) <= 1 + 1e-9)
        assert np.all(m.sum(axis=1) <= 1 + 1e-9)
        for link in chain:
            assert link.leq(sup)


def test_random_generators_are_seed_deterministic():
    a = random_stoch(X2, Random(5))
    b = random_stoch(X2, Random(5))
    assert a == b
    fa, ga = random_ordered_pair(X2, Random(9))
    fb, gb = random_ordered_pair(X2, Random(9))
    assert fa == fb and ga == gb
    assert fa.leq(ga)


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[float("nan"), 0.0], [0.0, 0.0]], DimensionMismatch),
        ([[float("inf"), 0.0], [0.0, 0.0]], DimensionMismatch),
        ([[10 ** 400, 0], [0, 0]], DimensionMismatch),
        ([["0.5", 0.0], [0.0, 0.0]], ParseError),
        ([[True, False], [False, False]], ParseError),
        ([[None, 0.0], [0.0, 0.0]], ParseError),
        ([0.5, 0, 0, 0.5], DimensionMismatch),
        ([0.5, 0.5], DimensionMismatch),
        ([[0.5, 0.0], [0.0]], DimensionMismatch),
        ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], DimensionMismatch),
        ("ab", DimensionMismatch),
    ],
    ids=["nan", "inf", "huge-int", "numeric-string", "bool", "null", "flat", "flat-n",
         "ragged", "wide", "string"],
)
def test_constructor_refuses_anything_but_an_n_by_n_matrix_of_finite_reals(rows, error):
    with pytest.raises(error):
        StochMorphism(X2, X2, rows)


def test_constructor_stores_float_tuples_and_from_doc_validates():
    f = StochMorphism(X2, X2, [[1, 0], (0, 0.5)])
    assert f.rows == ((1.0, 0.0), (0.0, 0.5))
    assert all(type(x) is float for row in f.rows for x in row)
    assert f == StochMorphism(X2, X2, f.rows) and hash(f) == hash(StochMorphism(X2, X2, f.rows))
    assert repr(f) == "DStoch(2, [[1.0, 0.0], [0.0, 0.5]])"
    with pytest.raises(DimensionMismatch):
        loads_morphism('{"type": "dstoch", "n": 1, "rows": [[NaN]]}')
    with pytest.raises(DimensionMismatch):
        loads_morphism('{"type": "dstoch", "n": 2, "rows": [0.5, 0, 0, 0.5]}')


def test_sup_of_a_non_chain_that_leaves_the_category_is_refused():
    f = StochMorphism(X2, X2, [[0.9, 0.0], [0.0, 0.0]])
    g = StochMorphism(X2, X2, [[0.0, 0.9], [0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        StochMorphism.sup([f, g])


@st.composite
def stoch_matrices(draw, n):
    """An n x n matrix of floats in [0, 1], shrunk until every line sum is at most 1."""
    m = np.array(
        draw(st.lists(st.lists(st.floats(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, n)
    if n:
        bound = max(m.sum(axis=0).max(), m.sum(axis=1).max(), 1.0)
        m = m / bound
    return StochMorphism(FinObject(n), FinObject(n), m.tolist())


@st.composite
def stoch_pairs(draw):
    n = draw(st.integers(0, 6))
    return draw(stoch_matrices(n)), draw(stoch_matrices(n))


def close(rows, reference):
    return np.allclose(np.array(rows, dtype=float).reshape(np.shape(reference)), reference, rtol=0, atol=1e-12)


@given(stoch_pairs(), st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
def test_tuple_ops_agree_with_the_numpy_oracle_up_to_6x6(fg, tolerance):
    f, g = fg
    n = f.src.size
    a, b = np.array(f.rows, dtype=float).reshape(n, n), np.array(g.rows, dtype=float).reshape(n, n)
    assert close(g.compose(f).rows, stoch_compose(b, a))
    assert np.array_equal(np.array(f.dagger().rows).reshape(n, n), stoch_dagger(a))
    assert f.dagger().dagger() == f
    damped = StochMorphism(f.src, f.dst, (a * 0.5).tolist())
    for x, y, p, q in ((f, g, a, b), (damped, f, a * 0.5, a), (f, damped, a, a * 0.5)):
        assert x.leq(y, tolerance) == bool(np.all(p <= q + tolerance))
        assert x.isclose(y, tolerance) == bool(np.all(np.abs(p - q) <= tolerance))
        assert abs(x.distance(y) - (np.abs(p - q).max() if n else 0.0)) <= 1e-12
    joined = np.maximum(a, b)
    if stoch_valid(joined):
        assert close(StochMorphism.sup([f, g]).rows, joined)
    else:
        with pytest.raises(DimensionMismatch):
            StochMorphism.sup([f, g])
    assert StochMorphism.sup([damped, f]) == f


@given(st.integers(0, 6), st.integers(0, 2 ** 32))
def test_trusted_generators_return_the_oracle_matrices(n, seed):
    obj = FinObject(n)

    def rows(m):
        return tuple(tuple(r) for r in m.tolist())

    mine, theirs = Random(seed), Random(seed)
    f = random_stoch(obj, mine)
    assert f.rows == rows(stoch_random(n, theirs))
    pair = random_ordered_pair(obj, mine)
    assert tuple(m.rows for m in pair) == tuple(map(rows, stoch_random_ordered_pair(n, theirs)))
    chain = random_chain(obj, mine, 4)
    assert [m.rows for m in chain] == list(map(rows, stoch_random_chain(n, theirs, 4)))
    assert mine.random() == theirs.random()
    for m in (f, *pair, *chain):
        assert stoch_valid(m.rows)
        assert StochMorphism(obj, obj, m.rows) == m
