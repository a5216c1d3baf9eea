"""rel and pinj values of a listable hom-set are shared, and every value
keeps memos.

``_make`` returns one object per ``(src, dst, body)`` in every hom-set of at
most ``ENUMERATION_CAP`` cells, and a fresh value past it.  Shared or not, a
value keeps its converse from its first ``dagger``, and a relation the table
its first ``compose`` as the left operand chooses: its subset joins in a
listable hom-set with at most ``ENUMERATION_CAP`` sources, and ``()``
elsewhere.  The kernels are checked against the scalar oracles on both sides
of the bound.  After the commands that build the most values, the shared
tables are checked to hold nothing past the bound, and every memo held to
equal what its value alone fixes.
"""
import json
from contextlib import redirect_stdout
from io import StringIO
from itertools import product
from random import Random

import pytest

from revcat.cat.objects import ENUMERATION_CAP, MAX_SIZE, FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cli import main

from checkers import random_rel
from oracles import compose_rows, count_partial_injections, transpose_rows

SHARED = {"rel": RelMorphism, "pinj": PInjMorphism}
# The sides of every listable hom-set, apart from Hom(n, 0) and Hom(0, n).
LISTED = range(ENUMERATION_CAP + 1)


def homs(category, n, m):
    return HomSpace(category, FinObject(n), FinObject(m)).morphisms()


def body(f):
    return f.table if isinstance(f, PInjMorphism) else f.rows


def test_rel_compose_reads_the_table_of_a_shared_left_operand_on_every_listed_pair():
    for n, m, k in product(range(4), repeat=3):
        fs = homs("rel", n, m)
        for g in homs("rel", m, k):
            for f in fs:
                assert g.compose(f).rows == compose_rows(g.rows, f.rows)
            assert len(g._table) == 2 ** m


@pytest.mark.parametrize("n", [16, 64, MAX_SIZE])
def test_rel_compose_peels_bits_past_the_bound(n):
    rng = Random(n)
    x = FinObject(n)
    for _ in range(200):
        f, g = random_rel(rng, n, n), random_rel(rng, n, n)
        gf = g.compose(f)
        assert gf.rows == compose_rows(g.rows, f.rows)
    # ``_make`` builds a fresh value past the bound too.  A left operand
    # there keeps an empty table, so no table is built; no other value
    # holds one.
    made = RelMorphism._make(x, x, g.rows)
    assert made is not g and made.compose(f) == gf
    assert g._table == made._table == ()
    assert not any(hasattr(m, "_table") for m in (f, gf))


@pytest.mark.parametrize("k", [0, 1, 3, MAX_SIZE])
def test_rel_compose_through_the_shared_hom_sets_of_an_empty_object(k):
    # Hom(128, 0) and Hom(0, 128) are listable, so their one value is
    # shared; the table of a left operand with 128 sources is never built.
    rng = Random(k)
    x0, x128, xk = FinObject(0), FinObject(MAX_SIZE), FinObject(k)
    into, out_of = RelMorphism.bottom(x128, x0), RelMorphism.bottom(x0, x128)
    assert into is RelMorphism._make(x128, x0, (0,) * MAX_SIZE)
    assert out_of.dagger() is into and into.dagger() is out_of
    f, g = random_rel(rng, k, MAX_SIZE), random_rel(rng, MAX_SIZE, k)
    empty_k = RelMorphism.bottom(xk, x0)
    for left, right in [(into, f), (g, out_of), (out_of, empty_k), (into, out_of), (out_of, into)]:
        assert left.compose(right).rows == compose_rows(left.rows, right.rows)
    assert into._table == () and out_of._table == (0,)
    assert into.compose(f) is RelMorphism.bottom(xk, x0)


@pytest.mark.parametrize("category", SHARED)
def test_make_shares_equal_bodies_inside_the_bound_only(category):
    cls = SHARED[category]
    inside = [(3, 3), (1, ENUMERATION_CAP), (ENUMERATION_CAP, 1), (MAX_SIZE, 0), (0, MAX_SIZE)]
    outside = [(4, 4), (1, ENUMERATION_CAP + 1), (MAX_SIZE, MAX_SIZE)]
    for (n, m), shared in [(hom, True) for hom in inside] + [(hom, False) for hom in outside]:
        src, dst = FinObject(n), FinObject(m)
        made = cls.identity(src) if n == m else cls.bottom(src, dst)
        again = cls._make(src, dst, tuple(list(body(made))))
        assert again == made and hash(again) == hash(made)
        assert (again is made) == shared, (n, m)


@pytest.mark.parametrize("category", SHARED)
def test_every_shared_value_keeps_its_converse_and_equals_its_public_twin(category):
    cls = SHARED[category]
    listed = [(n, m) for n, m in product(LISTED, repeat=2) if n * m <= ENUMERATION_CAP]
    for f in (f for n, m in listed + [(MAX_SIZE, 0), (0, MAX_SIZE)] for f in homs(category, n, m)):
        assert f.dagger().dagger() is f
        twin = cls(f.src, f.dst, body(f))
        assert twin is not f and twin == f and f == twin and hash(twin) == hash(f)
        assert twin.dagger() == f.dagger()
        assert twin.dagger() is f.dagger()


def listable(cls, n: int, m: int) -> int:
    """The number of values of the hom-set Hom(n, m) of ``cls``."""
    return 2 ** (n * m) if cls is RelMorphism else count_partial_injections(n, m)


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def after_the_largest_commands(tmp_path_factory):
    """Run the commands that make the most values in-process: the
    enumerated laws of rel's dagger suite and of every pinj suite, then
    ``trace`` on 128-point rel and pinj documents and ``fix`` on a 128-point
    rel closure.  Returns the keys of each shared table after the laws."""
    tmp_path = tmp_path_factory.mktemp("documents")
    n = MAX_SIZE
    chain = {"type": "rel", "src": n, "dst": n, "pairs": [[i, i + 1] for i in range(0, n - 1, 3)]}
    cycle = {"type": "pinj", "src": n, "dst": n, "map": {str(i): (i + 1) % n for i in range(n)}}
    closure = {"op": "joinwith", "m": chain, "inner": {"op": "postcompose", "m": chain}}
    with redirect_stdout(StringIO()):
        assert main(["laws", "--category", "rel", "--sizes", "0,1,2,3", "--suite", "dagger"]) == 0
        assert main(["laws", "--category", "pinj", "--sizes", "0,1,2,3", "--seed", "1"]) == 0
        after_laws = {cls: set(cls._shared) for cls in SHARED.values()}
        assert main(["trace", _write(tmp_path / "rel.json", chain), "--x", "32", "--y", "32", "--u", "96"]) == 0
        assert main(["trace", _write(tmp_path / "pinj.json", cycle), "--x", "1", "--y", "1", "--u", "127"]) == 0
        assert main(["fix", _write(tmp_path / "fix.json", closure), "--max-iterations", "50"]) == 0
    return after_laws


def test_the_commands_that_make_the_most_values_share_nothing_past_the_bound(after_the_largest_commands):
    sizes = [obj.size for obj in FinObject._interned.values()]
    for cls in SHARED.values():
        assert all(src.size * dst.size <= ENUMERATION_CAP for src, dst, _ in cls._shared)
        bound = sum(listable(cls, n, m) for n, m in product(sizes, repeat=2) if n * m <= ENUMERATION_CAP)
        assert len(cls._shared) <= bound
        assert set(cls._shared) == after_the_largest_commands[cls]


def subset_joins(f: RelMorphism) -> tuple[int, ...]:
    """The table of ``f`` by the table rule: in a listable hom-set with at
    most ``ENUMERATION_CAP`` sources, entry ``s`` is the row that ``f``
    composed after a relation with the row ``s`` has, and ``()`` elsewhere."""
    n, m = f.src.size, f.dst.size
    if n > ENUMERATION_CAP or n * m > ENUMERATION_CAP:
        return ()
    return compose_rows(f.rows, range(2 ** n))


def assert_memos_are_sound(f) -> int:
    """Every memo ``f`` holds equals what its public-constructor twin
    computes afresh; returns how many it holds."""
    cls = type(f)
    twin = cls(f.src, f.dst, body(f))
    held = 0
    if hasattr(f, "_converse"):
        assert f._converse == twin.dagger(), f
        held += 1
    if hasattr(f, "_table"):
        assert cls is RelMorphism and f._table == subset_joins(f), f
        held += 1
    return held


def test_every_memo_equals_what_its_value_alone_fixes(after_the_largest_commands):
    # Fresh relations, composed and daggered: four past the table rule's
    # bound, and one of a listable hom-set, built by the public constructor.
    rng = Random(7)
    n, k = MAX_SIZE, ENUMERATION_CAP + 1
    fresh = [random_rel(rng, *sides) for sides in [(n, n), (k, 1), (3, 4), (n, 0), (3, 3)]]
    for f in fresh:
        f.compose(RelMorphism.identity(f.src))
        assert f.dagger().rows == transpose_rows(f.rows, f.dst.size)
        assert assert_memos_are_sound(f) == 2
    assert [len(f._table) for f in fresh] == [0, 0, 0, 0, 2 ** 3]
    for cls in SHARED.values():
        held = sum(assert_memos_are_sound(f) for f in list(cls._shared.values()))
        assert held > 0
