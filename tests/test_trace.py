from itertools import product
from random import Random
from types import ModuleType

import pytest

import revcat.functionals.trace as trace_module
from revcat.cat.objects import MAX_SIZE, FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism, enumerate_pinj
from revcat.cat.rel import RelMorphism, enumerate_rel
from revcat.errors import DimensionMismatch, IncompatibleJoin
from revcat.functionals.trace import check_dagger_trace, trace

from checkers import check_trace_sliding
from oracles import all_partial_injections, orbit_trace, relational_trace

O1, O2 = FinObject(1), FinObject(2)
X3 = FinObject(3)


def test_orbit_example_threads_through_the_feedback_block():
    # x -> u0, u0 -> u1, u1 -> y on blocks X=Y=1, U=2
    f = PInjMorphism.from_map(X3, X3, {0: 1, 1: 2, 2: 0})
    traced = trace(f, O1, O1, O2)
    assert traced.mapping == orbit_trace({0: 1, 1: 2, 2: 0}, 1, 1, 2) == {0: 0}


def test_no_entry_into_feedback_returns_the_plain_block():
    f = PInjMorphism.from_map(X3, X3, {0: 0, 1: 2, 2: 1})
    traced = trace(f, O1, O1, O2)
    assert traced.mapping == {0: 0}


def test_dying_orbit_is_undefined_in_pinj():
    # x -> u0, u0 -> u1, then undefined: never exits
    f = PInjMorphism.from_map(X3, X3, {0: 1, 1: 2})
    traced = trace(f, O1, O1, O2)
    assert traced.mapping == orbit_trace({0: 1, 1: 2}, 1, 1, 2) == {}


def test_cycling_orbit_without_exit_is_undefined_in_rel():
    # x -> u0, u0 -> u1, u1 -> u0: a 2-cycle with empty exit block
    f = RelMorphism.from_pairs(X3, X3, [(0, 1), (1, 2), (2, 1)])
    traced = trace(f, O1, O1, O2)
    assert traced.pairs == []


def test_rel_trace_collects_all_exits():
    # x -> {u0, y directly}; u0 -> {u0, y}: both routes land on y
    f = RelMorphism.from_pairs(FinObject(2), FinObject(2), [(0, 0), (0, 1), (1, 1), (1, 0)])
    traced = trace(f, O1, O1, O1)
    assert traced.pairs == [(0, 0)]


def test_trace_dimension_check():
    f = PInjMorphism.bottom(X3, FinObject(2))
    with pytest.raises(DimensionMismatch):
        trace(f, O1, O1, O2)


@pytest.mark.parametrize(
    "category,shape",
    [
        ("pinj", (1, 1, 0)),
        ("pinj", (1, 1, 1)),
        ("pinj", (1, 1, 2)),
        ("rel", (1, 1, 1)),
    ],
)
def test_dagger_trace_exhaustive(category, shape):
    report = check_dagger_trace(category, *shape)
    assert report.passed, report.violations[:2]
    assert report.by_law["trace-dagger"] > 0
    assert report.by_law["trace-natural"] > 0


def test_identity_trace_is_identity_on_the_visible_block():
    ident = PInjMorphism.identity(X3)
    traced = trace(ident, O1, O1, O2)
    assert traced == PInjMorphism.identity(O1)
    assert traced.dagger() == traced


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_sliding_dinaturality(category):
    report = check_trace_sliding(category, 1, 1, 2)
    assert report.passed
    assert report.by_law.get("trace-sliding", 0) > 0


def _blocks(shape):
    x, y, u = (FinObject(n) for n in shape)
    return x, y, u, FinObject(x.size + u.size), FinObject(y.size + u.size)


@pytest.mark.parametrize(
    "shape", [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 3)]
)
def test_pinj_trace_matches_the_orbit_oracle_on_every_morphism(shape):
    # (1, 1, 3) has 16 cells, past the enumeration cap, so the oracle lists them.
    x, y, u, src, dst = _blocks(shape)
    for mapping in all_partial_injections(src.size, dst.size):
        f = PInjMorphism.from_map(src, dst, mapping)
        traced = trace(f, x, y, u)
        assert traced.mapping == orbit_trace(f.mapping, *shape), f


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)])
def test_rel_trace_matches_the_path_oracle_on_every_morphism(shape):
    x, y, u, src, dst = _blocks(shape)
    for f in enumerate_rel(src, dst):
        traced = trace(f, x, y, u)
        assert set(traced.pairs) == relational_trace(f.pairs, *shape), f


# A trace that ignores the feedback block (Tr(f) = f_XY) passes all three
# dagger-trace laws; yanking does not hold for it.
@pytest.mark.parametrize("cls", [RelMorphism, PInjMorphism])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_yanking_the_swap_gives_the_identity(cls, n):
    u, uu = FinObject(n), FinObject(2 * n)
    swap = PInjMorphism.from_map(uu, uu, {i: (i + n) % (2 * n) for i in range(2 * n)})
    if cls is RelMorphism:
        swap = swap.to_rel()
    assert trace(swap, u, u, u) == cls.identity(u)


@pytest.mark.parametrize("enumerate_homs", [enumerate_rel, enumerate_pinj])
def test_vanishing_over_the_empty_object_is_the_identity(enumerate_homs):
    for x, y in product(range(3), repeat=2):
        for f in enumerate_homs(FinObject(x), FinObject(y)):
            assert trace(f, FinObject(x), FinObject(y), FinObject(0)) == f


# Tr_{U+V}(f) = Tr_U(Tr_V(f)) for f: X + U + V -> Y + U + V.
@pytest.mark.parametrize("enumerate_homs", [enumerate_rel, enumerate_pinj])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
def test_vanishing_traces_a_sum_one_summand_at_a_time(enumerate_homs, shape):
    x, y, u, v = (FinObject(n) for n in shape)
    xu, yu = FinObject(x.size + u.size), FinObject(y.size + u.size)
    uv = FinObject(u.size + v.size)
    src, dst = FinObject(xu.size + v.size), FinObject(yu.size + v.size)
    for f in enumerate_homs(src, dst):
        assert trace(f, x, y, uv) == trace(trace(f, xu, yu, v), x, y, u), f


def test_exit_map_is_not_injective_so_pinj_traces_through_rel():
    # u0 -> u1 -> y0: both points of U exit at y0.
    f = PInjMorphism.from_map(X3, X3, {0: 1, 1: 2, 2: 0})
    f_uy = PInjMorphism.from_rel(f.to_rel().block(1, 3, 0, 1))
    f_uu = PInjMorphism.from_rel(f.to_rel().block(1, 3, 1, 3))
    with pytest.raises(IncompatibleJoin):
        f_uy.join(f_uy.compose(f_uu))
    assert trace(f, O1, O1, O2) == PInjMorphism.from_map(O1, O1, {0: 0})


def test_the_trace_submodule_is_not_shadowed_by_its_function():
    assert isinstance(trace_module, ModuleType)
    assert trace_module.trace is trace


def test_trace_is_one_least_fixed_point(monkeypatch):
    kleene_fix = trace_module.kleene_fix
    calls = []

    def counting(step, space, *rest):
        calls.append(space)
        return kleene_fix(step, space, *rest)

    monkeypatch.setattr(trace_module, "kleene_fix", counting)
    for f in enumerate_pinj(X3, X3):
        trace(f, O1, O1, O2)
    assert calls == [HomSpace("rel", O2, O1)] * len(enumerate_pinj(X3, X3))


def _draw_large(rng: Random, category: str):
    """A random f: X + U -> Y + U with both sides up to MAX_SIZE, and its
    blocks.  It is a partial injection, defined on most points so that walks
    through U run long; in rel, a few rows also gain a second target."""
    u = rng.randrange(MAX_SIZE)
    x, y = rng.randrange(1, MAX_SIZE - u + 1), rng.randrange(1, MAX_SIZE - u + 1)
    src, dst = x + u, y + u
    targets = rng.sample(range(dst), min(src, dst))
    mapping = {i: t for i, t in zip(rng.sample(range(src), len(targets)), targets) if rng.random() < 0.95}
    blocks = (FinObject(x), FinObject(y), FinObject(u))
    if category == "pinj":
        return PInjMorphism.from_map(FinObject(src), FinObject(dst), mapping), blocks
    extra = [(rng.randrange(src), rng.randrange(dst)) for _ in range(rng.randrange(4))]
    return RelMorphism.from_pairs(FinObject(src), FinObject(dst), [*mapping.items(), *extra]), blocks


@pytest.fixture()
def chains(monkeypatch):
    """The iteration count of each Kleene chain ``trace`` runs."""
    kleene_fix, counts = trace_module.kleene_fix, []

    def counting(step, space, *rest):
        result = kleene_fix(step, space, *rest)
        counts.append(result.iterations)
        return result

    monkeypatch.setattr(trace_module, "kleene_fix", counting)
    return counts


@pytest.mark.parametrize("category", ["pinj", "rel"])
def test_trace_matches_its_oracle_and_commutes_with_dagger_up_to_max_size(chains, category):
    rng = Random(f"trace-{category}")
    for _ in range(60):
        f, (x, y, u) = _draw_large(rng, category)
        traced = trace(f, x, y, u)
        if category == "pinj":
            assert traced.mapping == orbit_trace(f.mapping, x.size, y.size, u.size), f
        else:
            assert set(traced.pairs) == relational_trace(f.pairs, x.size, y.size, u.size), f
        assert traced.dagger() == trace(f.dagger(), y, x, u), f
    assert max(chains) >= 32


@pytest.mark.parametrize("cls", [PInjMorphism, RelMorphism])
def test_a_cycle_through_all_of_u_takes_one_iteration_per_point(chains, cls):
    # i -> i + 1 mod MAX_SIZE on X + U = Y + U with X = Y = 1: x walks
    # through every point of U before it leaves at y.
    whole, u = FinObject(MAX_SIZE), FinObject(MAX_SIZE - 1)
    cycle = PInjMorphism.from_map(whole, whole, {i: (i + 1) % MAX_SIZE for i in range(MAX_SIZE)})
    f = cycle if cls is PInjMorphism else cycle.to_rel()
    traced = trace(f, O1, O1, u)
    assert traced == cls.identity(O1)
    assert traced.dagger() == trace(f.dagger(), O1, O1, u)
    assert chains == [MAX_SIZE, MAX_SIZE]
