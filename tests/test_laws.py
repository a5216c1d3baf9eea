from itertools import product
from string import Formatter

import pytest

from revcat.cat.dstoch import StochMorphism
from revcat.cat.laws import LAWS, SUITES, LawConfig, law_suite
from revcat.cat.objects import FinObject
from revcat.cat.ops import CATEGORIES
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.report import LawReport, Violation
from revcat.revlang.denote import random_peano_pair, roundtrip_check

from bundled import bundled_program
from oracles import count_partial_injections


@pytest.mark.parametrize("category", ["rel", "pinj"])
@pytest.mark.parametrize("suite", SUITES)
def test_finite_suites_pass_exhaustively(category, suite):
    report = law_suite(category, suite, LawConfig(sizes=(0, 1, 2)))
    assert report.passed, report.violations[:3]
    assert report.checked > 0


@pytest.mark.parametrize("suite", SUITES)
def test_stochastic_suites_pass_with_seed(suite):
    config = LawConfig(sizes=(1, 2, 3), trials=300, seed=42)
    report = law_suite("dstoch", suite, config)
    assert report.passed, report.violations[:3]
    assert report.checked > 0


def test_stochastic_order_iso_thousand_seeded_pairs():
    config = LawConfig(sizes=(1, 2, 3, 4), trials=1000, seed=99, tolerance=1e-9)
    report = law_suite("dstoch", "order-iso", config)
    assert report.passed
    assert report.by_law["order-iso"] == 1000


def test_stochastic_suites_require_a_seed():
    with pytest.raises(ValueError):
        law_suite("dstoch", "dagger", LawConfig(trials=10, seed=None))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        law_suite("rel", "no-such-suite")


def test_compose_dagger_law_count_at_exact_size_two():
    report = law_suite("rel", "dagger", LawConfig(sizes=(2,)))
    assert report.by_law["compose-dagger"] == 16 * 16
    assert report.by_law["double-dagger"] == 16
    assert report.by_law["identity-dagger"] == 1


@pytest.mark.parametrize(
    "cls, hom_count",
    [(RelMorphism, lambda n, m: 2 ** (n * m)), (PInjMorphism, count_partial_injections)],
    ids=["rel", "pinj"],
)
def test_the_dagger_suite_calls_dagger_once_per_dagger_its_laws_name(monkeypatch, cls, hom_count):
    # identity-dagger has one instance per object and takes one dagger;
    # double-dagger has one per morphism and takes two; compose-dagger has
    # one per composable pair and takes three, (g . f)+, f+ and g+.  So
    # |Hom(x, y)| = 2^(xy) in rel, and the partial-injection count in pinj,
    # fixes the number of calls: a cache in front of ``dagger`` must not
    # take any away.
    calls = []
    dagger = cls.dagger
    monkeypatch.setattr(cls, "dagger", lambda f: calls.append(f) or dagger(f))
    sizes = (0, 1, 2)
    identity = len(sizes)
    double = sum(hom_count(x, y) for x, y in product(sizes, repeat=2))
    compose = sum(hom_count(x, y) * hom_count(y, z) for x, y, z in product(sizes, repeat=3))
    report = law_suite(cls.category, "dagger", LawConfig(sizes=sizes))
    assert report.passed
    assert report.by_law == {"identity-dagger": identity, "double-dagger": double, "compose-dagger": compose}
    assert len(calls) == identity + 2 * double + 3 * compose


def test_joins_and_sups_build_without_the_validating_constructor(monkeypatch):
    # pinj's enrichment suite joins through ``sup``; every dstoch suite draws
    # through ``_make``, and two of them take sups of chains.  None of it may
    # validate its results again.
    calls = []
    for cls in (PInjMorphism, StochMorphism):
        validate = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda m, validate=validate: calls.append(m) or validate(m))
    report = law_suite("pinj", "enrichment", LawConfig(sizes=(0, 1, 2, 3)))
    assert report.passed and report.by_law["compose-preserves-sup"] > 0
    for suite in SUITES:
        report = law_suite("dstoch", suite, LawConfig(sizes=(1, 2, 3, 4), seed=1, trials=50))
        assert report.passed and report.checked > 0
    assert calls == []
    PInjMorphism(FinObject(1), FinObject(1), (0,))
    StochMorphism(FinObject(1), FinObject(1), ((0.5,),))
    assert len(calls) == 2


def test_pinj_monotone_dagger_exhaustive_at_size_three():
    report = law_suite("pinj", "monotone-dagger", LawConfig(sizes=(3,)))
    assert report.passed
    # ordered pairs with f <= g inside the 34-element hom-set
    assert report.by_law["dagger-monotone"] > 34


def test_pinj_monotone_dagger_exhaustive_up_to_size_three():
    report = law_suite("pinj", "monotone-dagger", LawConfig(sizes=(0, 1, 2, 3)))
    assert report.passed
    assert report.checked > 139  # at least the size-3 ordered pairs


def test_reports_merge_associatively():
    def v(name):
        return LawReport("s", 0, [Violation("law", name)], {"law": 1})

    a, b, c = v("a"), v("b"), v("c")
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.checked == 3
    assert [x.witness for x in left.violations] == ["a", "b", "c"]
    assert left.by_law == {"law": 3}
    with pytest.raises(ValueError):
        a.merge(LawReport("other"))


@pytest.mark.parametrize(
    "run",
    [
        lambda: law_suite("dstoch", "order-iso", LawConfig(sizes=(1, 2, 3), trials=50, seed=5)),
        lambda: roundtrip_check(bundled_program("add"), "add", {}, 50, 30, 1,
                                value_gen=random_peano_pair),
    ],
    ids=["law-suite", "roundtrip"],
)
def test_two_runs_of_one_seeded_check_give_equal_reports(run):
    first, second = run(), run()
    assert first.checked > 0
    assert first == second


def test_every_law_is_checked_and_the_categories_check_the_same_laws():
    config = LawConfig(sizes=(1, 2), trials=3, seed=1)
    laws = {(c, s): set(law_suite(c, s, config).by_law) for c in CATEGORIES for s in SUITES}
    assert set().union(*laws.values()) == set(LAWS)
    for suite in SUITES:
        # Only the randomized suite draws ordered pairs apart from its order-iso pair.
        assert laws["rel", suite] == laws["pinj", suite] == laws["dstoch", suite] - {"order-iso-ordered"}


def test_every_witness_names_every_argument_of_its_instance():
    for law, (holds, witness) in LAWS.items():
        arity = holds.__code__.co_argcount - 1  # the tolerance comes last
        fields = {int(name) for _, name, _, _ in Formatter().parse(witness) if name is not None}
        assert fields == set(range(arity)), law
