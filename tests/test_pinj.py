import pytest
from hypothesis import given, strategies as st

from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.errors import DimensionMismatch, IncompatibleJoin

from checkers import check_pinj_fix_in_rel, check_pinj_in_rel
from oracles import count_partial_injections

X2 = FinObject(2)
X3 = FinObject(3)


def pinj(mapping, src=X3, dst=X3):
    return PInjMorphism.from_map(src, dst, mapping)


def test_injectivity_enforced():
    with pytest.raises(DimensionMismatch):
        pinj({0: 1, 2: 1})


def test_dagger_inverts_the_table():
    f = pinj({0: 2, 1: 0})
    assert f.dagger().mapping == {2: 0, 0: 1}
    assert f.dagger().dagger() == f


def test_compose_threads_partiality():
    f = pinj({0: 1})
    g = pinj({1: 2})
    assert g.compose(f).mapping == {0: 2}
    assert f.compose(g).mapping == {}


def test_strictness_of_composition():
    bottom = PInjMorphism.bottom(X3, X3)
    g = pinj({0: 1, 1: 0})
    assert g.compose(bottom) == bottom
    assert bottom.compose(g) == bottom


def test_leq_is_graph_extension():
    assert pinj({0: 1}).leq(pinj({0: 1, 1: 2}))
    assert not pinj({0: 1}).leq(pinj({0: 2}))
    assert PInjMorphism.bottom(X3, X3).leq(pinj({2: 2}))


def test_join_requires_compatibility():
    small = FinObject(2)
    with pytest.raises(IncompatibleJoin):
        pinj({0: 0}, small, small).join(pinj({0: 1}, small, small))
    with pytest.raises(IncompatibleJoin):
        pinj({0: 0}, small, small).join(pinj({1: 0}, small, small))
    merged = pinj({0: 0}, small, small).join(pinj({1: 1}, small, small))
    assert merged.mapping == {0: 0, 1: 1}
    f = pinj({0: 2})
    assert f.join(PInjMorphism.bottom(X3, X3)) == f


def test_enumeration_matches_counting_formula():
    assert len(HomSpace("pinj", X2, X2).morphisms()) == count_partial_injections(2, 2) == 7
    assert len(HomSpace("pinj", X3, X3).morphisms()) == count_partial_injections(3, 3) == 34
    homs = HomSpace("pinj", X3, X2).morphisms()
    assert len(homs) == len(set(homs)) == count_partial_injections(3, 2)


def injective_tables(n=3, m=3):
    """Random partial injection tables: a permutation image masked per slot."""
    return st.tuples(
        st.permutations(range(m)), st.lists(st.booleans(), min_size=n, max_size=n)
    ).map(
        lambda seed: PInjMorphism(
            FinObject(n),
            FinObject(m),
            tuple(t if keep else None for t, keep in zip(seed[0], seed[1])),
        )
    )


@given(injective_tables(), injective_tables())
def test_dagger_properties_on_random_injections(f, g):
    assert f.dagger().dagger() == f
    assert g.compose(f).dagger() == f.dagger().compose(g.dagger())
    assert f.dagger().compose(f).mapping.keys() <= f.mapping.keys()
    # restriction to the domain of definition: f . f+ . f = f
    assert f.compose(f.dagger().compose(f)) == f


@given(injective_tables())
def test_embedding_commutes_with_dagger_on_random_injections(f):
    assert f.dagger().to_rel() == f.to_rel().dagger()


def test_embedding_into_rel_is_a_faithful_dagger_functor():
    homs2 = HomSpace("pinj", X2, X2).morphisms()
    for f in homs2:
        assert f.dagger().to_rel() == f.to_rel().dagger()
        for g in homs2:
            assert g.compose(f).to_rel() == g.to_rel().compose(f.to_rel())
            assert f.leq(g) == f.to_rel().leq(g.to_rel())
    assert len({f.to_rel() for f in homs2}) == len(homs2)  # faithful


def test_pinj_ops_commute_with_the_embedding_into_rel_past_the_enumerated_sizes():
    report = check_pinj_in_rel()
    assert report.passed, report.violations[:3]
    assert report.by_law == {"compose": 800, "dagger": 800, "leq": 2400, "join": 1600}


def test_fixed_points_commute_with_the_embedding_into_rel():
    # E(fix phi) = fix(E phi) and E(fix(conj phi)) = fix(conj(E phi)), with
    # E the tree rebuilt on rel, wherever the pinj chain stays defined.
    report = check_pinj_fix_in_rel()
    assert report.passed, report.violations[:3]
    assert report.by_law == {"fix": 1711, "fix-conj": 1711}
    assert report.skipped == 2 * (2000 - 1711)
