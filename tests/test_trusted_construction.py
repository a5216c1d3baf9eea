"""rel and pinj operations build their results without re-validating them.

The fast operations are checked against the scalar oracles in
``oracles.py``; every result must also pass the public constructor's
validation, and the public constructors, ``from_*`` and rel's ``block``
must still refuse what they refused before.
"""
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from revcat.cat.dstoch import StochMorphism
from revcat.cat.objects import ENUMERATION_CAP, MAX_SIZE, FinObject, Shared
from revcat.cat.ops import MORPHISM_CLASSES, HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cat.serialize import loads_morphism
from revcat.errors import DimensionMismatch, IncompatibleJoin
from revcat.record import FrozenInstanceError

from checkers import check_pinj_join
from oracles import compose_rows, join_graphs, transpose_rows

SIZES = range(3)


def validated(m):
    """``m`` rebuilt through its public constructor, which validates it."""
    body = m.table if isinstance(m, PInjMorphism) else m.rows
    return type(m)(m.src, m.dst, body)


def homs(category, n, m):
    return HomSpace(category, FinObject(n), FinObject(m)).morphisms()


def test_rel_ops_agree_with_the_scalar_oracles_on_every_hom_set_up_to_2x2():
    for n, m in product(SIZES, repeat=2):
        fs = homs("rel", n, m)
        for f in fs:
            assert validated(f) == f
            d = f.dagger()
            assert d.rows == transpose_rows(f.rows, m)
            assert validated(d) == d and d.dagger() == f
            assert f.dagger() is d
            for f2 in fs:
                joined = f.join(f2)
                assert set(joined.pairs) == set(f.pairs) | set(f2.pairs)
                assert validated(joined) == joined
            for k in SIZES:
                for g in homs("rel", m, k):
                    gf = g.compose(f)
                    assert gf.rows == compose_rows(g.rows, f.rows)
                    assert validated(gf) == gf
            for p, q in product(SIZES, repeat=2):
                for g in homs("rel", p, q):
                    s = f.block_sum(g)
                    shifted = {(i + n, j + m) for i, j in g.pairs}
                    assert set(s.pairs) == set(f.pairs) | shifted
                    assert validated(s) == s


def row_kinds(width):
    """Rows of ``width`` bits of one kind: sparse (at most three bits set),
    dense (at most three clear), or drawn whole."""
    mask = (1 << width) - 1
    sparse = st.sets(st.integers(0, max(width - 1, 0)), max_size=min(3, width)).map(
        lambda bits: sum(1 << b for b in bits)
    )
    return st.sampled_from([sparse, sparse.map(mask.__xor__), st.integers(0, mask)])


@st.composite
def composable_relations(draw):
    n, m, k = (draw(st.integers(0, MAX_SIZE)) for _ in range(3))

    def relation(src, dst):
        rows = draw(st.lists(draw(row_kinds(dst)), min_size=src, max_size=src))
        return RelMorphism(FinObject(src), FinObject(dst), tuple(rows))

    return relation(n, m), relation(m, k)


# A 128 x 128 example draws 256 rows, so fewer examples than the default.
@settings(max_examples=50, deadline=None)
@given(composable_relations())
def test_rel_compose_and_dagger_agree_with_the_scalar_oracles_up_to_max_size(fg):
    f, g = fg
    assert g.compose(f).rows == compose_rows(g.rows, f.rows)
    assert f.dagger().rows == transpose_rows(f.rows, f.dst.size)
    assert g.compose(f).dagger() == f.dagger().compose(g.dagger())
    assert validated(g.compose(f)) == g.compose(f)


def test_the_rel_converse_cache_is_keyed_by_both_objects_and_bounded():
    # Equal rows in different hom-sets: every Hom(0, n) has rows (), and
    # both bottoms out of 2 have rows (0, 0).  The converse is kept on the
    # shared value, which ``_make`` keys by both objects and the rows.
    x0, x1, x2, x3 = map(FinObject, range(4))
    for (a, b), (c, d) in [((x0, x1), (x0, x2)), ((x2, x1), (x2, x3))]:
        f, g = RelMorphism.bottom(a, b), RelMorphism.bottom(c, d)
        assert f.rows == g.rows
        assert f.dagger() != g.dagger()
        assert (f.dagger().src, f.dagger().dst) == (b, a)
        assert (g.dagger().src, g.dagger().dst) == (d, c)
        assert f.dagger().dagger() is f and g.dagger().dagger() is g
    # Only values of listable hom-sets are shared.
    assert all(src.size * dst.size <= ENUMERATION_CAP for src, dst, _ in RelMorphism._shared)


def test_pinj_dagger_and_compose_commute_with_the_embedding_into_rel():
    for n, m in product(range(4), repeat=2):
        for f in homs("pinj", n, m):
            assert validated(f) == f
            assert f.dagger().to_rel() == f.to_rel().dagger()
            assert validated(f.dagger()) == f.dagger()
            for k in range(4):
                for g in homs("pinj", m, k):
                    gf = g.compose(f)
                    assert gf.to_rel() == g.to_rel().compose(f.to_rel())
                    assert validated(gf) == gf
            s = f.block_sum(PInjMorphism.identity(FinObject(n)))
            assert validated(s) == s


def test_pinj_join_is_the_union_of_graphs_on_every_pair_of_hom_3_3():
    report = check_pinj_join(PInjMorphism.join)
    assert report.passed, report.violations[:3]
    assert report.by_law["join-refused"] > 0 and report.by_law["join-graph-union"] > 0
    # Compatible graphs whose union is not injective: refused with the
    # message the validating constructor gives.
    x = FinObject(3)
    f, g = PInjMorphism.from_map(x, x, {0: 0}), PInjMorphism.from_map(x, x, {1: 0})
    assert join_graphs(f.mapping, g.mapping) is None
    with pytest.raises(IncompatibleJoin, match=r"^not injective: target 0 hit twice$"):
        f.join(g)
    with pytest.raises(DimensionMismatch, match=r"^not injective: target 0 hit twice$"):
        PInjMorphism(x, x, (0, 0, None))
    h = PInjMorphism.from_map(x, x, {0: 1})
    with pytest.raises(IncompatibleJoin, match=r"^source 0 sent to both 0 and 1$"):
        f.join(h)


def test_dstoch_sup_refuses_a_max_that_leaves_the_category():
    x, y = FinObject(2), FinObject(3)
    f = StochMorphism(x, x, ((0.6, 0.0), (0.0, 0.0)))
    g = StochMorphism(x, x, ((0.0, 0.6), (0.0, 0.0)))
    assert not f.leq(g) and not g.leq(f)
    # The entrywise max of this non-chain has a first row summing to 1.2.
    with pytest.raises(DimensionMismatch, match="row or column sum exceeds 1"):
        StochMorphism.sup([f, g])
    for chain in ([f, StochMorphism.bottom(y, y)], [StochMorphism.bottom(y, y), f]):
        with pytest.raises(DimensionMismatch, match="different hom-sets"):
            StochMorphism.sup(chain)
    top = StochMorphism.sup([StochMorphism.bottom(x, x), f])
    assert top == f and validated(top) == top


@pytest.mark.parametrize(
    "cls, body",
    [
        (RelMorphism, (0, 0)),
        (RelMorphism, (3, 1)),
        (PInjMorphism, (None, None)),
        (PInjMorphism, (1, None)),
        (StochMorphism, ((0.5, 0.25), (0.25, 0.5))),
    ],
)
def test_trusted_and_public_construction_give_the_same_value(cls, body):
    x = FinObject(2)
    made, built = cls._make(x, x, body), cls(x, x, body)
    assert made == built and built == made
    assert hash(made) == hash(built)
    assert repr(made) == repr(built)
    assert [getattr(made, name) for name in cls._fields] == [getattr(built, name) for name in cls._fields]
    assert len({made, built}) == 1
    with pytest.raises(FrozenInstanceError):
        made.src = x


@pytest.mark.parametrize("cls", MORPHISM_CLASSES.values(), ids=MORPHISM_CLASSES.keys())
def test_morphism_values_are_slotted(cls):
    x = FinObject(2)
    # The fields are the class's own slots; a shared class keeps its memos
    # in the slots of its ``Shared`` base.
    assert cls.__slots__ == cls._fields
    memos = Shared.__slots__ if issubclass(cls, Shared) else ()
    assert cls is StochMorphism or memos
    made = cls.identity(x)
    built = cls(*(getattr(made, name) for name in cls._fields))
    past = cls.identity(FinObject(ENUMERATION_CAP))
    # No value holds a memo before its first use: the public constructor
    # builds ``built`` fresh, and so does ``_make`` past the bound.
    assert not any(hasattr(m, name) for m in (built, past) for name in memos)
    for m in (made, built, made.dagger(), made.compose(built)):
        assert not hasattr(m, "__dict__")
    # Shared or not, each keeps an equal converse after a ``dagger``.
    for m in (made, built, past):
        converse = m.dagger()
        if memos:
            assert m._converse == converse


X2 = FinObject(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RelMorphism(X2, X2, (4, 0)),
        lambda: RelMorphism(X2, X2, (-1, 0)),
        lambda: RelMorphism(X2, X2, (1,)),
        lambda: PInjMorphism(X2, X2, (0, 0)),
        lambda: PInjMorphism(X2, X2, (2, None)),
        lambda: PInjMorphism(X2, X2, (0,)),
        lambda: RelMorphism.identity(X2).block(0, 3, 0, 2),
        lambda: RelMorphism.from_doc({"type": "rel", "src": 2, "dst": 2, "pairs": [[0, 2]]}),
        lambda: loads_morphism('{"type": "pinj", "src": 2, "dst": 2, "map": {"0": 5}}'),
    ],
)
def test_construction_from_outside_still_validates(build):
    with pytest.raises(DimensionMismatch):
        build()
