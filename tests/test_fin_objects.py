"""Objects are interned: one ``FinObject`` per size, so the hom-set checks
(``same_hom``, ``HomSpace.contains``, the ``compose`` guards) compare
objects with ``is`` alone.  This holds only if every path that builds a
morphism gets its objects from ``FinObject(n)``; the table below walks
those paths.  The rel kernels that these checks guard are checked against
the pair-set definitions."""
from decimal import Decimal
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, strategies as st

from revcat.cat.objects import MAX_SIZE, FinObject
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cat.serialize import morphism_from_doc, read_json
from revcat.errors import InvalidArgument
from revcat.functionals.expr import functional_from_doc
from revcat.functionals.functors import DisjointUnionWith
from revcat.functionals.trace import trace_family
from revcat.revlang.denote import denote

from bundled import bundled_program
from oracles import compose_pairs

# Sizes no other test builds, so each alias test sees the size's first use.
_FRESH = count(10 ** 9, 7)


@given(st.integers(0, MAX_SIZE))
def test_one_object_per_size(n):
    obj = FinObject(n)
    assert obj is FinObject(n)
    assert type(obj.size) is int and obj.size == n
    assert obj != FinObject(n + 1)


@pytest.mark.parametrize("alias", [float, Fraction, Decimal], ids=["float", "Fraction", "Decimal"])
@pytest.mark.parametrize("alias_first", [True, False], ids=["alias-first", "int-first"])
def test_a_size_equal_to_an_int_but_not_an_int_is_refused(alias, alias_first):
    # Each alias is == and hashes as the int, so a lookup without the type
    # check would store it for the int, or hand back the int's object.  The
    # table is keyed by the tuple of field values.
    size = next(_FRESH)
    assert (size,) not in FinObject._interned
    if alias_first:
        with pytest.raises(InvalidArgument, match="must be an int"):
            FinObject(alias(size))
        assert (size,) not in FinObject._interned
    obj = FinObject(size)
    with pytest.raises(InvalidArgument, match="must be an int"):
        FinObject(alias(size))
    assert FinObject(size) is obj and type(obj.size) is int


@pytest.mark.parametrize("size", [False, True, "2", None])
def test_bools_and_other_non_ints_are_refused(size):
    with pytest.raises(InvalidArgument):
        FinObject(size)
    assert type(FinObject(0).size) is type(FinObject(1).size) is int


def _trace_component():
    host = trace_family("rel", FinObject(1)).component(FinObject(2), FinObject(1))
    assert host.dom.src is FinObject(3) and host.dom.dst is FinObject(2)
    return host.apply(RelMorphism.identity(FinObject(3)).block(0, 3, 0, 2))


def _denoted():
    return denote(bundled_program("swap"), "swap", {}, universe_bound=3, fuel=8)


# (path, a thunk building a morphism or a hom-set, its source and target sizes;
# None where the size is the length of the morphism's body).
PATHS = [
    ("read_json rel", lambda: morphism_from_doc(read_json('{"type":"rel","src":2,"dst":3,"pairs":[[0,1]]}')), 2, 3),
    ("read_json pinj", lambda: morphism_from_doc(read_json('{"type":"pinj","src":3,"dst":2,"map":{"0":1}}')), 3, 2),
    ("read_json dstoch", lambda: morphism_from_doc(read_json('{"type":"dstoch","n":2,"rows":[[1,0],[0,1]]}')), 2, 2),
    ("functional dom", lambda: functional_from_doc(read_json(
        '{"op":"identity","dom":{"cat":"pinj","src":4,"dst":1}}')).dom, 4, 1),
    ("functional dom bottom", lambda: functional_from_doc(read_json(
        '{"op":"identity","dom":{"cat":"rel","src":1,"dst":4}}')).dom.bottom, 1, 4),
    ("block", lambda: RelMorphism.identity(FinObject(4)).block(1, 3, 0, 1), 2, 1),
    ("rel block_sum", lambda: RelMorphism.identity(FinObject(1)).block_sum(RelMorphism.bottom(FinObject(2), FinObject(3))), 3, 4),
    ("pinj block_sum", lambda: PInjMorphism.identity(FinObject(2)).block_sum(PInjMorphism.identity(FinObject(3))), 5, 5),
    ("DisjointUnionWith.apply_obj", lambda: RelMorphism.identity(DisjointUnionWith(FinObject(2)).apply_obj(FinObject(3))), 5, 5),
    ("DisjointUnionWith.apply_mor", lambda: DisjointUnionWith(FinObject(2)).apply_mor(PInjMorphism.identity(FinObject(1))), 3, 3),
    ("trace_family", _trace_component, 2, 1),
    ("denote", _denoted, None, None),
]


@pytest.mark.parametrize("build, src, dst", [row[1:] for row in PATHS], ids=[row[0] for row in PATHS])
def test_every_construction_path_yields_the_interned_objects(build, src, dst):
    made = build()
    if src is None:
        src = dst = len(made.table)
        assert src > 1
    assert made.src is FinObject(src) and made.dst is FinObject(dst)


def _pairs(n, m):
    return st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))) if n and m else st.just(set())


@given(st.data())
def test_rel_join_leq_and_compose_match_the_pair_set_definitions(data):
    # Up to 6 x 6: past ENUMERATION_CAP, so these hom-sets are never listed.
    n, m, k = (data.draw(st.integers(0, 6)) for _ in range(3))
    a, c = data.draw(_pairs(n, m)), data.draw(_pairs(m, k))
    b = data.draw(_pairs(n, m))
    if data.draw(st.booleans()):
        b = b | a
    x, y, z = FinObject(n), FinObject(m), FinObject(k)
    f, g, h = RelMorphism.from_pairs(x, y, a), RelMorphism.from_pairs(x, y, b), RelMorphism.from_pairs(y, z, c)
    assert set(f.join(g).pairs) == a | b
    assert f.leq(g) is (a <= b) and g.leq(f) is (b <= a)
    assert set(h.compose(f).pairs) == compose_pairs(c, a)
    assert h.compose(f).src is x and h.compose(f).dst is z
