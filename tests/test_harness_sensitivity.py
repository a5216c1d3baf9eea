"""The checkers must be able to fail: feed them deliberately broken input."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from revcat import order, record
from revcat.cat.dstoch import StochMorphism
from revcat.cat.laws import LawConfig, law_suite
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cli import main
from revcat.errors import IncompatibleJoin
from revcat.functionals import expr, fixpoints
from revcat.functionals.expr import (
    Const,
    Host,
    IdentityFn,
    JoinOf,
    JoinWith,
    Param,
    PostCompose,
    PreCompose,
    Seq,
)
from revcat.functionals.fixpoints import (
    check_conj_preservation,
    check_fixed_point_adjoint,
    check_pfix_adjoint,
    check_pfix_identity,
    fix_functional,
)
from revcat.functionals.functors import IdentityFunctor
from revcat.functionals.naturality import NaturalFamily, check_naturality, check_self_conjugate
from revcat.functionals.param import ParamExpr
from revcat.functionals.trace import check_dagger_trace
from revcat.order import KleeneResult
from revcat.report import Violation
from revcat.revlang.denote import random_peano_pair, roundtrip_check
from revcat.revlang.interp import UNDEFINED, Evaluator
from revcat.revlang import interp, parser
from revcat.revlang.parser import parse_program, parse_value
from revcat.revlang.syntax import CallRef

from bundled import bundled_program
from checkers import (
    check_call_table,
    check_diagonal,
    check_dinaturality,
    check_fix_pfix_agreement,
    check_park_induction,
    check_pinj_in_rel,
    check_pinj_join,
    mixed_family,
)
from oracles import complement
import test_exit_contract

SRC = Path(__file__).resolve().parents[1] / "src"
# The module defines a function under its own name, trace.
trace_module = importlib.import_module("revcat.functionals.trace")


def test_non_natural_family_is_flagged():
    report = check_naturality(mixed_family(), FinObject(2), FinObject(2), FinObject(2), FinObject(1), fuel=4)
    assert not report.passed


def test_a_wrong_symbolic_conjugate_would_be_caught():
    # the correct conjugate swaps pre/post composition; keeping PostCompose
    # (a plausible rewrite bug) yields a different fixed point, so the
    # adjoint equality being checked is not vacuous
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    m = RelMorphism.from_pairs(x, x, [(0, 1)])
    j = RelMorphism.from_pairs(x, x, [(0, 0)])
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
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    skew = RelMorphism.from_pairs(x, x, [(0, 1)])

    def weird(h):
        return skew if h == RelMorphism.bottom(x, x) else h

    assert check_fixed_point_adjoint(Host(weird, space, space)).passed
    assert check_pfix_adjoint(
        ParamExpr(JoinOf(Param(space, space), IdentityFn(space)), space)
    ).passed


def test_self_conjugacy_check_flags_a_skewed_one_argument_family():
    x = FinObject(2)

    def component(a: FinObject, b: FinObject):
        space = HomSpace("rel", a, b)
        skew = RelMorphism.from_pairs(b, b, [(0, 1)])
        return Seq(PostCompose(skew, space), JoinWith(skew))

    family = NaturalFamily("skewed", "rel", IdentityFunctor(), IdentityFunctor(), component)
    report = check_self_conjugate(family, x, x)
    assert not report.passed
    agree = [v for v in report.violations if v.law == "formulations-agree"]
    assert not agree  # both formulations flag the same witnesses


def test_iteration_identity_registry_is_keyed_by_name():
    x = FinObject(2)
    space = HomSpace("rel", x, x)
    psi = ParamExpr(JoinOf(IdentityFn(space), Param(space, space)), space)
    report = check_pfix_identity(psi)
    assert report.suite == "pfix-identity"
    assert report.passed

    report = check_fix_pfix_agreement(IdentityFn(space), space)
    assert report.suite == "fix-pfix-derivations"
    assert report.passed


def test_park_induction_flags_an_engine_that_starts_at_the_top(monkeypatch):
    # Started at the top of a rel hom-set, the same iteration descends to
    # the greatest fixed point.
    iterate = order._iterate

    def from_top(step1, space, policy):
        top = SimpleNamespace(bottom=space.morphisms()[-1], metric=space.metric, contains=space.contains)
        return iterate(step1, top, policy)

    monkeypatch.setattr(order, "_iterate", from_top)
    report = check_park_induction("rel")
    assert {v.law for v in report.violations} == {"park-induction"}


def test_park_induction_flags_an_engine_that_returns_a_prefixed_point_read_from_the_top(monkeypatch):
    # Each hom-set lists its morphisms in an order that extends <=, so the
    # first h with phi(h) <= h in that order is the least one, the fixed
    # point.  Read from the top down, the first is the top itself.
    def first_prefixed_point(step1, space, policy):
        for h in reversed(space.morphisms()):
            if step1(h).leq(h):
                return KleeneResult(h, 1, None)

    monkeypatch.setattr(order, "_iterate", first_prefixed_point)
    report = check_park_induction("rel")
    assert {v.law for v in report.violations} == {"park-induction"}


def _one_step_early(iterate):
    """An engine that, on a chain of more than one element, returns the
    iterate just below the fixed point ``iterate`` finds."""

    def one_step_early(step1, space, policy):
        result = iterate(step1, space, policy)
        if result.iterations == 1:
            return result
        value = space.bottom
        for _ in range(result.iterations - 2):
            value = step1(value)
        return KleeneResult(value, result.iterations - 1, None)

    return one_step_early


def test_conway_identities_flag_an_engine_that_stops_one_step_early(monkeypatch):
    # Park induction cannot see this engine: an iterate below the least
    # fixed point lies below every prefixed point too.
    monkeypatch.setattr(order, "_iterate", _one_step_early(order._iterate))
    assert check_park_induction("rel").passed
    assert {v.law for v in check_dinaturality("rel").violations} == {"dinaturality", "dinaturality-conj"}
    assert check_diagonal("rel").violations


def test_pfix_identity_flags_an_engine_that_stops_after_two_steps(monkeypatch):
    # psi(h, p) = p v h.s with s a 3-cycle: from bottom the chain runs
    # p, p v p.s, p v p.s v p.s^2 and repeats its third iterate, so it takes
    # four iterations.  The random functionals of the law suites reach their
    # fixed points within two.  The adjoint laws cannot catch an engine cut
    # short: conjugation commutes with each iterate, so a chain stopped early
    # still agrees with the chain of the conjugate stopped at the same step.
    x = FinObject(3)
    space = HomSpace("rel", x, x)
    s = RelMorphism.from_pairs(x, x, [(0, 1), (1, 2), (2, 0)])

    def make_psi():
        return ParamExpr(JoinOf(Param(space, space), PreCompose(s, space)), space)

    psi = make_psi()
    assert order.kleene_pfix(psi.apply, RelMorphism.identity(x), space).iterations == 4
    report = check_pfix_identity(psi)
    assert report.passed and report.checked == 512

    def two_steps(step1, space, policy):
        return KleeneResult(step1(step1(space.bottom)), 2, None)

    monkeypatch.setattr(order, "_iterate", two_steps)
    # A ParamExpr keeps the fixed points it was checked with; a fresh one
    # is iterated by the patched engine.
    psi = make_psi()
    assert len(check_pfix_identity(psi).violations) == 387
    assert check_pfix_adjoint(psi).passed


@pytest.mark.parametrize("category, violations, checked", [("rel", 2681, 3200), ("pinj", 647, 871)])
def test_pfix_identity_flags_an_engine_that_stops_one_step_early_beside_its_draw_sharers(
    capsys, monkeypatch, category, violations, checked
):
    # pfix-identity reads the fixed points that pfix-adjoint, run first on
    # the same draw, left in its memo; the wrong engine still shows.
    monkeypatch.setattr(order, "_iterate", _one_step_early(order._iterate))
    pfix = ["pfix-adjoint", "conj-preservation", "pfix-identity"]
    for suites in (pfix[2:], pfix):
        argv = ["laws", "--category", category, "--seed", "1", "--format", "json"]
        assert main(argv + [a for s in suites for a in ("--suite", s)]) == 1
        entries = json.loads(capsys.readouterr().out)["suites"]
        entry = entries["pfix-identity"]
        assert (len(entry["violations"]), entry["checked"]) == (violations, checked)
        assert all(entries[name]["violations"] == [] for name in suites[:-1])


def _failed_laws(category, suite, config):
    return {v.law for v in law_suite(category, suite, config).violations}


@pytest.mark.parametrize(
    "suite, laws",
    [
        ("dagger", {"identity-dagger", "compose-dagger"}),
        ("monotone-dagger", {"dagger-monotone"}),
        ("order-iso", {"order-iso", "dagger-preserves-sup", "dagger-strict"}),
    ],
)
def test_dagger_suites_flag_a_rel_dagger_that_complements(monkeypatch, suite, laws):
    converse = RelMorphism.dagger
    monkeypatch.setattr(RelMorphism, "dagger", lambda f: complement(converse(f)))
    assert laws <= _failed_laws("rel", suite, LawConfig(sizes=(1, 2)))


def test_enrichment_suite_flags_a_rel_compose_that_relates_everything(monkeypatch):
    monkeypatch.setattr(
        RelMorphism, "compose", lambda g, f: complement(RelMorphism.bottom(f.src, g.dst))
    )
    failed = _failed_laws("rel", "enrichment", LawConfig(sizes=(1, 2)))
    assert {"bottom-after", "bottom-before"} <= failed


def test_join_check_flags_a_pinj_join_that_skips_the_injectivity_test(monkeypatch):
    fill = record.filler(PInjMorphism)

    def unchecked_join(f, g):
        table = list(f.table)
        for i, j in enumerate(g.table):
            if j is not None:
                if table[i] not in (None, j):
                    raise IncompatibleJoin(f"source {i} sent to both {table[i]} and {j}")
                table[i] = j
        # Built unshared, past validation: ``_make`` would keep an invalid
        # value in the shared table for the rest of the process.
        joined = object.__new__(PInjMorphism)
        fill(joined, (f.src, f.dst, tuple(table)))
        return joined

    monkeypatch.setattr(PInjMorphism, "join", unchecked_join)
    report = check_pinj_join(PInjMorphism.join)
    assert {v.law for v in report.violations} == {"join-graph-union"}
    assert any(v.witness.startswith("f=PInj(3->3, {0: 0}) g=PInj(3->3, {1: 0}) ") for v in report.violations)
    for cls in (RelMorphism, PInjMorphism):
        for src, dst, body in list(cls._shared):
            cls(src, dst, body)


def test_dstoch_dagger_suite_flags_a_dagger_that_transposes_nothing(monkeypatch):
    monkeypatch.setattr(StochMorphism, "dagger", lambda f: f)
    assert "compose-dagger" in _failed_laws("dstoch", "dagger", LawConfig(trials=50, seed=1))


@pytest.mark.parametrize(
    "suite, laws",
    [("dagger", {"identity-dagger", "double-dagger"}), ("order-iso", {"order-iso"})],
)
def test_dagger_suites_flag_a_pinj_dagger_that_forgets_every_point(monkeypatch, suite, laws):
    monkeypatch.setattr(PInjMorphism, "dagger", lambda f: PInjMorphism.bottom(f.dst, f.src))
    report = law_suite("pinj", suite, LawConfig(sizes=(1, 2)))
    assert laws <= {v.law for v in report.violations}
    if suite == "dagger":
        assert report.violations[0] == Violation("identity-dagger", "PInj(1->1, {0: 0})")


@pytest.mark.parametrize(
    "suite, laws",
    [
        ("enrichment", {"compose-monotone-left", "compose-monotone-right"}),
        ("monotone-dagger", {"dagger-monotone"}),
        ("order-iso", {"order-iso-ordered"}),
    ],
)
def test_order_suites_flag_a_dstoch_leq_that_refuses_everything(monkeypatch, suite, laws):
    monkeypatch.setattr(StochMorphism, "leq", lambda f, g, tolerance=0.0: False)
    assert laws <= _failed_laws("dstoch", suite, LawConfig(sizes=(1, 2), trials=20, seed=1))


class _AnyFuelRow(dict):
    """A call-table row that answers a recorded outcome at any fuel."""

    def get(self, value, default=None):
        entry = dict.get(self, value, default)
        if entry is not None and entry[0] is not UNDEFINED:
            return entry[0], 1
        return entry


def test_call_table_check_flags_a_table_that_ignores_least_fuel(monkeypatch):
    compile_ = Evaluator._compile

    def forgetful_compile(self, ref):
        clauses, _ = compile_(self, ref)
        self._compiled[ref] = code = (clauses, _AnyFuelRow())
        return code

    monkeypatch.setattr(Evaluator, "_compile", forgetful_compile)
    add = bundled_program("add")
    value = parse_value("(S (S Z), Z)")  # needs fuel 3
    report = check_call_table(Evaluator(add), CallRef("add"), [(value, 10), (value, 2)])
    assert not report.passed
    # The roundtrip laws cannot catch this: fuel-adjoint runs the forward
    # and the backward call at one fuel, and below their least fuel both
    # answer their recorded outcomes, so both sides are wrong in the same
    # way and the law holds.
    assert roundtrip_check(add, "add", {}, 50, 30, 1, value_gen=random_peano_pair).passed


INF = float("inf")
ONLY_THE_REFERENCE = lambda row, value: id(row)  # noqa: E731
ONLY_THE_VALUE = lambda row, value: value  # noqa: E731
THE_CALL = lambda row, value: (id(row), value)  # noqa: E731


class _CoarseStackRow(dict):
    """A call-table row that holds a call on the stack as undefined at every
    fuel, as the evaluator does, but finds a call on the stack by ``key(row,
    value)``: by its reference alone or by its value alone."""

    def __init__(self, key, on_stack):
        super().__init__()
        self.key, self.on_stack = key, on_stack

    def __setitem__(self, value, entry):
        if entry[1] == INF:
            self.on_stack.append(self.key(self, value))
        elif dict.get(self, value, (None, 0))[1] == INF:
            self.on_stack.remove(self.key(self, value))
        dict.__setitem__(self, value, entry)

    def get(self, value, default=None):
        if self.key(self, value) in self.on_stack:
            return UNDEFINED, INF
        return dict.get(self, value, default)


@pytest.mark.parametrize(
    "key, program, ref, value",
    [
        # add (S Z, Z) calls add (Z, Z): the same reference, another value.
        (ONLY_THE_REFERENCE, "add", "add", "(S Z, Z)"),
        # f Z calls g Z: the same value, another reference.
        (ONLY_THE_VALUE, "fun g x = let y = g2 x in y\nfun g2 x = x\nfun f x = let y = g x in y\n", "f", "Z"),
    ],
)
def test_call_table_check_flags_a_cycle_found_by_half_a_call(monkeypatch, key, program, ref, value):
    compile_ = Evaluator._compile
    program = bundled_program(program) if program == "add" else parse_program(program)
    for stack_key, passes in ((key, False), (THE_CALL, True)):
        on_stack = []

        def keyed_compile(self, r):
            clauses, _ = compile_(self, r)
            self._compiled[r] = code = (clauses, _CoarseStackRow(stack_key, on_stack))
            return code

        monkeypatch.setattr(Evaluator, "_compile", keyed_compile)
        report = check_call_table(Evaluator(program), CallRef(ref), [(parse_value(value), 10)])
        assert report.passed is passes


# -- the text of a violation's witness -------------------------------------------

X2 = FinObject(2)
REL2 = HomSpace("rel", X2, X2)
STEP = RelMorphism.from_pairs(X2, X2, [(0, 1)])
SEED = RelMorphism.from_pairs(X2, X2, [(0, 0)])


def _skewed_family():
    def component(a, b):
        space = HomSpace("rel", a, b)
        skew = RelMorphism.from_pairs(b, b, [(0, 1)])
        return Seq(PostCompose(skew, space), JoinWith(skew))

    return NaturalFamily("skewed", "rel", IdentityFunctor(), IdentityFunctor(), component)


def _skewed_pfix():
    """p |-> least h with h = STEP.h v p: not self-conjugate."""
    return ParamExpr(JoinOf(PostCompose(STEP, REL2), Param(REL2, REL2)), REL2)


def _fix_adjoint(monkeypatch):
    monkeypatch.setattr(fixpoints, "conj", lambda phi: phi)
    return check_fixed_point_adjoint(Seq(PostCompose(STEP, REL2), JoinWith(SEED)))


def _pfix_adjoint(monkeypatch):
    monkeypatch.setattr(fixpoints, "conj_param", lambda psi: psi)
    return check_pfix_adjoint(_skewed_pfix())


def _conj_preservation(monkeypatch):
    monkeypatch.setattr(fixpoints, "conj_param", lambda psi: psi)
    return check_conj_preservation(_skewed_pfix())


def _pfix_identity(monkeypatch):
    monkeypatch.setattr(fixpoints, "kleene_pfix", lambda step, p, space: SimpleNamespace(value=space.bottom))
    return check_pfix_identity(ParamExpr(JoinOf(IdentityFn(REL2), Param(REL2, REL2)), REL2))


def _dagger_trace(monkeypatch):
    # A "trace" that relates the last input to the first output: its dagger
    # relates the first input to the last output, so neither law holds.
    monkeypatch.setattr(
        trace_module, "trace", lambda f, x, y, u: RelMorphism.from_pairs(x, y, [(x.size - 1, 0)])
    )
    return check_dagger_trace("rel", 1, 2, 1)


def _naturality(monkeypatch):
    return check_naturality(mixed_family(), X2, X2, X2, FinObject(1), fuel=4)


def _naturality_of_a_constant(monkeypatch):
    # h, p |-> h v p v {(0, 0)} in every hom-set: the constant does not
    # transport, so the iterates and the fixed points do not commute either.
    def component(a, b):
        space = HomSpace("rel", a, b)
        corner = RelMorphism.from_pairs(a, b, [(0, 0)])
        return ParamExpr(JoinOf(JoinOf(IdentityFn(space), Param(space, space)), Const(corner, space)), space)

    family = NaturalFamily("corner", "rel", IdentityFunctor(), IdentityFunctor(), component)
    return check_naturality(family, X2, X2, FinObject(1), FinObject(1), fuel=2)


def _self_conjugate(monkeypatch):
    return check_self_conjugate(_skewed_family(), X2, X2)


def _roundtrip(monkeypatch):
    # An "inverse" of swap that leaves its input as it is.
    monkeypatch.setattr(interp, "invert_def", lambda fdef: parse_program("fun swap x = x\n").defs["swap"])
    pairs = lambda rng: random_peano_pair(rng, limit=4)
    return roundtrip_check(bundled_program("swap"), "swap", {}, 10, 5, 1, value_gen=pairs)


# Checker -> law -> the witness of its first violation.
WITNESSES = {
    'dagger-trace': {
        'trace-dagger': 'f=Rel(2->3, [])',
        'trace-natural': 'f=Rel(2->3, []) a=Rel(1->1, []) b=Rel(2->2, [])',
    },
    'fix-adjoint': {
        'fix-adjoint': 'fix=Rel(2->2, [(0, 0), (0, 1)]) fix-of-conjugate=Rel(2->2, [(0, 0), (0, 1)])',
    },
    'pfix-adjoint': {
        'pfix-adjoint': 'p=Rel(2->2, [(1, 0)]) lhs=Rel(2->2, [(0, 1), (1, 1)]) rhs=Rel(2->2, [(0, 1)])',
    },
    'conj-preservation': {
        'conj-preservation': 'p=Rel(2->2, [(1, 0)]) lhs=Rel(2->2, [(1, 0)]) rhs=Rel(2->2, [(1, 0), (1, 1)])',
    },
    'pfix-identity': {
        'pfix-fixpoint': 'p=Rel(2->2, [(1, 0)]) pfix=Rel(2->2, []) psi(pfix,p)=Rel(2->2, [(1, 0)])',
    },
    'naturality': {
        'family-square': 'u=Rel(2->2, [(1, 0)]) v=Rel(2->1, [(1, 0)]) h=Rel(2->2, [(0, 1)]) p=Rel(2->2, [])',
    },
    'naturality-of-a-constant': {
        'family-square': 'u=Rel(2->2, []) v=Rel(1->1, []) h=Rel(2->1, []) p=Rel(2->1, [])',
        'iterate-square': 'n=1 u=Rel(2->2, []) v=Rel(1->1, []) p=Rel(2->1, [])',
        'pfix-square': 'u=Rel(2->2, []) v=Rel(1->1, []) p=Rel(2->1, [])',
    },
    'self-conjugate': {
        'dagger-preservation': 'f=Rel(2->2, [])',
        'conjugate-formulation': 'f=Rel(2->2, [])',
    },
    'roundtrip': {
        'roundtrip': 'v=Pair(S(Z), Z) w=Pair(Z, S(Z)) back=Pair(Z, S(Z))',
        'fuel-adjoint': 'v=Pair(S(Z), Z) w=Pair(Z, S(Z)) fuel=3',
    },
}


@pytest.mark.parametrize("check", sorted(WITNESSES))
def test_a_violation_has_the_same_witness_text(monkeypatch, check):
    report = globals()["_" + check.replace("-", "_")](monkeypatch)
    first = {}
    for v in report.violations:
        first.setdefault(v.law, v.witness)
    assert first == WITNESSES[check]


def test_the_exit_contract_flags_a_parser_that_reads_past_its_last_token(monkeypatch):
    # Without its end-of-input token the parser indexes past the end of the
    # token list, and a raw IndexError escapes as exit 4.
    tokenize = parser.tokenize
    monkeypatch.setattr(parser, "tokenize", lambda source: tokenize(source)[:-1])
    with pytest.raises(AssertionError, match="error: internal: IndexError"):
        test_exit_contract.test_mutated_programs_keep_the_exit_contract()


def test_the_exit_contract_flags_a_document_reader_that_indexes_a_missing_field(monkeypatch):
    # Reading a node's field without checking that the document has it lets
    # a raw KeyError escape as exit 4.
    monkeypatch.setattr(expr, "_field", lambda doc, key: doc[key])
    # The test's own examples, unshrunk: the first failure is enough here.
    case = test_exit_contract.test_mutated_functional_documents_keep_the_exit_contract.hypothesis.inner_test
    unshrunk = settings(max_examples=250, deadline=None, database=None, derandomize=True, phases=[Phase.generate])
    with pytest.raises(AssertionError, match="error: internal: KeyError"):
        given(st.data())(unshrunk(case))()


# Faults under a memo, each set in a fresh process, so that no shared value
# already holds a memo that the correct function built.  The table fault
# leaves out the left operand's last row, which drops the paths through the
# last middle point on both sides of (g.f)+ = f+.g+, so the dagger suite
# cannot see it; the trace naturality law of dagger-trace does.
MEMO_FAULTS = {
    "none": ("", ["dagger"], 0),
    "a rel converse that drops one pair": (
        """
transpose = rel._transpose
def dropping(rows, src, dst):
    cols = list(transpose(rows, src, dst).rows)
    lowest = next((i for i, col in enumerate(cols) if col), None)
    if lowest is not None:
        cols[lowest] &= cols[lowest] - 1
    return rel.RelMorphism._make(dst, src, tuple(cols))
rel._transpose = dropping
""",
        ["dagger"],
        1,
    ),
    "a subset-join table that leaves out the last row": (
        """
joins = rel._subset_joins
rel._subset_joins = lambda rows: joins(rows[:-1] + (0,) if rows else rows)
""",
        ["dagger", "dagger-trace"],
        1,
    ),
}
RUN_LAWS = """
import sys
from revcat.cli import main
suites = [arg for suite in sys.argv[1:] for arg in ("--suite", suite)]
raise SystemExit(main(["laws", "--category", "rel", "--sizes", "0,1,2", *suites]))
"""


@pytest.mark.parametrize("fault", MEMO_FAULTS)
def test_a_fault_under_a_rel_memo_is_still_caught(fault):
    source, suites, code = MEMO_FAULTS[fault]
    result = subprocess.run(
        [sys.executable, "-c", "import revcat.cat.rel as rel\n" + source + RUN_LAWS, *suites],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == code, result.stdout + result.stderr
    assert "Traceback" not in result.stderr


# The identity laws at the enumerated sizes only, where left operands read
# their subset-join tables.
RUN_IDENTITY = """
from checkers import check_identity_compose
report = check_identity_compose("rel", sizes=(0, 1, 2, 3))
print(len(report.violations), report.checked)
raise SystemExit(0 if report.passed else 1)
"""


@pytest.mark.parametrize("fault", ["none", "a subset-join table that leaves out the last row"])
def test_the_identity_laws_catch_a_subset_join_table_that_leaves_out_the_last_row(fault):
    source, _, code = MEMO_FAULTS[fault]
    result = subprocess.run(
        [sys.executable, "-c", "import revcat.cat.rel as rel\n" + source + RUN_IDENTITY],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])},
    )
    assert result.returncode == code, result.stdout + result.stderr
    assert result.stdout.split() == (["1162", "1378"] if code else ["0", "1378"])


def test_the_pinj_embedding_check_flags_a_compose_that_drops_the_image_of_point_4(monkeypatch):
    compose = PInjMorphism.compose

    def dropping(g, f):
        table = list(compose(g, f).table)
        table[4:5] = [None] * len(table[4:5])
        return PInjMorphism._make(f.src, g.dst, tuple(table))

    monkeypatch.setattr(PInjMorphism, "compose", dropping)
    report = check_pinj_in_rel(sizes=(5, 17), draws=50)
    assert {v.law for v in report.violations} == {"compose"}


def test_the_pinj_embedding_check_flags_a_join_that_drops_the_right_points_above_3(monkeypatch):
    join = PInjMorphism.join

    def dropping(f, g):
        return join(f, PInjMorphism._make(g.src, g.dst, g.table[:4] + (None,) * len(g.table[4:])))

    monkeypatch.setattr(PInjMorphism, "join", dropping)
    report = check_pinj_in_rel(sizes=(5, 17), draws=50)
    assert {v.law for v in report.violations} == {"join"}
