"""The checkers must be able to fail: each fault of ``faults.FAULTS`` must
be caught by every detector its row names, as the row expects, and the row
``none`` shows that each of those detectors passes with no fault set."""
import pytest

from revcat import order
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.functionals.expr import Host, IdentityFn, JoinOf, JoinWith, Param, PostCompose, PreCompose, Seq
from revcat.functionals.fixpoints import (check_fixed_point_adjoint, check_pfix_adjoint, check_pfix_identity,
                                         fix_functional)
from revcat.functionals.naturality import check_self_conjugate
from revcat.functionals.param import ParamExpr

from checkers import check_fix_pfix_agreement
from faults import FAULTS, X2, mismatches, outcome_of, skewed_family, three_cycle

PAIRS = [pytest.param(name, detector, id=f"{name}: {detector}")
         for name, fault in FAULTS.items() for detector in fault.expect]


@pytest.mark.parametrize("fault, detector", PAIRS)
def test_caught(fault, detector):
    got = outcome_of(fault, detector)
    assert mismatches(FAULTS[fault].expect[detector], got) == [], got


NOT_NATURAL = "a family that is not natural"


def test_non_natural_family_is_flagged():
    assert not outcome_of(NOT_NATURAL, "naturality-mixed")["passed"]


@pytest.mark.parametrize("fault, detector", [pytest.param(NOT_NATURAL, "naturality-mixed", id="naturality")])
def test_a_violation_has_the_same_witness_text(fault, detector):
    # The first witness of each law, as text: a change to how a checker
    # draws or prints its witnesses shows here.
    got = outcome_of(fault, detector)["witness"]
    assert got == FAULTS[fault].expect[detector]["witness"]


def test_a_wrong_symbolic_conjugate_would_be_caught():
    # the correct conjugate swaps pre/post composition; keeping PostCompose
    # (a plausible rewrite bug) yields a different fixed point, so the
    # adjoint equality being checked is not vacuous
    space = HomSpace("rel", X2, X2)
    m = RelMorphism.from_pairs(X2, X2, [(0, 1)])
    j = RelMorphism.from_pairs(X2, X2, [(0, 0)])
    phi = Seq(PostCompose(m, space), JoinWith(j))

    right = Seq(PreCompose(m.dagger(), space), JoinWith(j.dagger()))
    wrong = Seq(PostCompose(m.dagger(), space), JoinWith(j.dagger()))

    target = fix_functional(phi).value.dagger()
    assert fix_functional(right).value == target
    assert fix_functional(wrong).value != target
    assert check_fixed_point_adjoint(phi).passed


def test_host_wrapper_satisfies_the_adjoint_law_by_construction():
    # opaque functionals are conjugated extensionally, so the fixed-point
    # adjoint law holds for them automatically, monotone or not: the
    # backward iteration mirrors the forward one step by step
    space = HomSpace("rel", X2, X2)
    skew = RelMorphism.from_pairs(X2, X2, [(0, 1)])

    def weird(h):
        return skew if h == RelMorphism.bottom(X2, X2) else h

    assert check_fixed_point_adjoint(Host(weird, space, space)).passed
    assert check_pfix_adjoint(ParamExpr(JoinOf(Param(space, space), IdentityFn(space)), space)).passed


def test_self_conjugacy_check_flags_a_skewed_one_argument_family():
    report = check_self_conjugate(skewed_family(), X2, X2)
    assert not report.passed
    # both formulations flag the same witnesses
    assert not [v for v in report.violations if v.law == "formulations-agree"]


def test_iteration_identity_registry_is_keyed_by_name():
    space = HomSpace("rel", X2, X2)
    psi = ParamExpr(JoinOf(IdentityFn(space), Param(space, space)), space)
    report = check_pfix_identity(psi)
    assert report.suite == "pfix-identity"
    assert report.passed

    report = check_fix_pfix_agreement(IdentityFn(space), space)
    assert report.suite == "fix-pfix-derivations"
    assert report.passed


def test_the_three_cycle_takes_four_kleene_steps():
    # The two-step engine's row is evidence only if its chain is longer.
    psi = three_cycle()
    x = psi.param_space.src
    assert order.kleene_pfix(psi.apply, RelMorphism.identity(x), psi.param_space).iterations == 4
    report = check_pfix_identity(psi)
    assert report.passed and report.checked == 512


def test_every_shared_value_passes_its_public_constructor():
    # A fault that builds values past validation must not leave one in a
    # shared table for the rest of the process.
    for cls in (RelMorphism, PInjMorphism):
        for src, dst, body in list(cls._shared):
            cls(src, dst, body)
