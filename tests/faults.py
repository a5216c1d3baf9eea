"""Every deliberate fault the harness must catch, once, with the detectors
that must catch it.  Not collected by pytest.

A law check is evidence only if it can fail.  ``FAULTS`` has one row per
fault; ``DETECTORS`` names each checker call, ``revcat`` run and tier-1
test that a row expects to catch its fault.  ``test_harness_sensitivity.py``
sets each row's fault, runs each detector the row names and compares what
came back with the row's expected outcome.  The row ``none`` sets no fault
and expects each detector that a patched row names to pass, so no row
passes vacuously.  A row whose fault is a broken input has no target and
needs no control.

``outcome`` reads what a detector returned.  A ``LawReport`` gives
``passed``, the failed ``laws``, the number of ``violations``, ``checked``
and the first ``witness`` of each failed law; an exit code gives ``exit``;
a test that returned gives ``passed``, and one whose assertion failed gives
the message it ``raised``.  An expected outcome names some of those keys.
Each value must equal the outcome's, or equal it as a set, or be a
predicate that holds of it.

Run as a script, ``python tests/faults.py`` prints the catch matrix.  It
sets each patched row's fault in a fresh process, at most two at a time,
and runs every column there: the default ``laws`` run of each category at
seed 1, the seven benchmark argvs and each checker call that a patched row
names.  It prints one JSON object, fault -> column -> result, with the row
``none`` first.  A ``laws`` run or a benchmark argv reads as its exit code,
and a checker call as the sorted list of the laws it found violated (or the
exception it raised).  A cell that differs from the ``none`` row's is a
catch, so a row whose cells all equal ``none``'s is a fault that no default
run and no listed checker can see.
"""
from __future__ import annotations

import __future__
import contextlib
import functools
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC, TEST_DIR = ROOT / "src", ROOT / "tests"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import Phase, given, settings, strategies as st

from revcat import cli, record
from revcat.cat.dstoch import StochMorphism
from revcat.cat.laws import LawConfig, law_suite
from revcat.cat.objects import FinObject
from revcat.cat.ops import CATEGORIES, HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.errors import IncompatibleJoin
from revcat.functionals.expr import Const, IdentityFn, JoinOf, JoinWith, Param, PostCompose, PreCompose, Seq
from revcat.functionals.fixpoints import (check_conj_preservation, check_fixed_point_adjoint, check_pfix_adjoint,
                                         check_pfix_identity)
from revcat.functionals.functors import IdentityFunctor
from revcat.functionals.naturality import NaturalFamily, check_naturality, check_self_conjugate
from revcat.functionals.param import ParamExpr
from revcat.functionals.trace import check_dagger_trace
from revcat.order import KleeneResult
from revcat.report import LawReport
from revcat.revlang.denote import random_peano_pair, roundtrip_check
from revcat.revlang.interp import UNDEFINED, Evaluator
from revcat.revlang.parser import parse_program, parse_value
from revcat.revlang.syntax import CallRef

import test_bench_contract
import test_exit_contract
import test_fin_objects
import test_revlang_interned
import test_revlang_invert
import test_shared_draws
import test_value_classes
import test_value_draws
from bundled import bundled_program
from checkers import (check_call_table, check_diagonal, check_dinaturality, check_identity_compose,
                      check_park_induction, check_pinj_in_dstoch, check_pinj_in_rel, check_pinj_join, mixed_family)
from oracles import complement


class Fault(NamedTuple):
    """One row of ``FAULTS``.

    ``fresh`` sets the fault in a fresh process before any detector runs,
    at the target and, for a module-level target, at every module-level
    name bound to the same object, as an edit of the source would.  A fault
    needs it when it acts under a memo that would outlive the row, or when a
    ``from ... import`` has copied its target."""
    name: str
    target: Optional[str]
    make: Optional[Callable]
    expect: dict
    fresh: bool = False


# -- expected outcomes -----------------------------------------------------------

def at_least(*laws):
    return lambda got: got is not None and set(laws) <= set(got)


def containing(text):
    return lambda got: got is not None and text in got


def only(suite, violations, checked):
    """``suite`` has these counts, and every other suite of the run none."""
    return lambda got: got[suite] == [violations, checked] and all(
        counts[0] == 0 for name, counts in got.items() if name != suite)


def mismatches(expected: dict, got: dict) -> list[str]:
    """The keys of ``expected`` that ``got`` does not meet."""
    def holds(want, value):
        if callable(want):
            return want(value)
        if isinstance(want, (set, frozenset)):
            return value is not None and want == set(value)
        return want == value

    return [key for key, want in expected.items() if not holds(want, got.get(key))]


def outcome(result) -> dict:
    if isinstance(result, LawReport):
        witness: dict = {}
        for v in result.violations:
            witness.setdefault(v.law, v.witness)
        return {"passed": result.passed, "laws": sorted(witness), "violations": len(result.violations),
                "checked": result.checked, "witness": witness}
    if isinstance(result, int):
        return {"passed": result == 0, "exit": result}
    if isinstance(result, BaseException):
        return {"passed": False, "raised": str(result)}
    return result or {"passed": True}


# -- making faults ---------------------------------------------------------------

def mutant(*edits):
    """``make`` for an edit of a function's source: the original compiled
    again, in its own module, with each ``(old, new)`` replaced; each
    ``old`` must occur exactly once."""
    def make(original):
        source = textwrap.dedent(inspect.getsource(original))
        for old, new in edits:
            if source.count(old) != 1:
                raise ValueError(f"{old!r} is not in {original.__qualname__} exactly once")
            source = source.replace(old, new)
        scratch = dict(original.__globals__)
        code = compile(source, inspect.getsourcefile(original), "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        exec(code, scratch)
        made = scratch[original.__name__]
        # Bound to the module's own namespace, so that it sees what is set there later.
        return types.FunctionType(made.__code__, original.__globals__, made.__name__, made.__defaults__)
    return make


def _rebound(func, **cells):
    """``func`` with the closure variables named in ``cells`` bound anew."""
    closure = tuple(types.CellType(cells[name]) if name in cells else cell
                    for name, cell in zip(func.__code__.co_freevars, func.__closure__))
    return types.FunctionType(func.__code__, func.__globals__, func.__name__, func.__defaults__, closure)


def set_fault(fault: Fault, patch: pytest.MonkeyPatch) -> None:
    if fault.target is None:
        return
    path, name = fault.target.rsplit(".", 1)
    owner = pkgutil.resolve_name(path)
    original = getattr(owner, name)
    faulty = fault.make(original)
    patch.setattr(owner, name, faulty)
    if fault.fresh and isinstance(owner, types.ModuleType):
        for module in list(sys.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, attr, faulty)


# Kleene engines: each replaces ``order._iterate(step1, space, policy)``.

def _from_top(iterate):
    # Started at the top of a rel hom-set, the same iteration descends to the
    # greatest fixed point.
    def from_top(step1, space, policy):
        top = SimpleNamespace(bottom=space.morphisms()[-1], metric=space.metric, contains=space.contains)
        return iterate(step1, top, policy)
    return from_top


def _first_prefixed_point(iterate):
    # Each hom-set lists its morphisms in an order that extends <=, so the
    # first h with phi(h) <= h in that order is the least one, the fixed
    # point.  Read from the top down, the first is the top itself.
    def first_prefixed_point(step1, space, policy):
        for h in reversed(space.morphisms()):
            if step1(h).leq(h):
                return KleeneResult(h, 1, None)
    return first_prefixed_point


def _one_step_early(iterate):
    # On a chain of more than one element, the iterate just below the fixed
    # point that ``iterate`` finds.
    def one_step_early(step1, space, policy):
        result = iterate(step1, space, policy)
        if result.iterations == 1:
            return result
        value = space.bottom
        for _ in range(result.iterations - 2):
            value = step1(value)
        return KleeneResult(value, result.iterations - 1, None)
    return one_step_early


def _two_steps(iterate):
    return lambda step1, space, policy: KleeneResult(step1(step1(space.bottom)), 2, None)


def _unchecked_pinj_join(join):
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
    return unchecked_join


def _dropping_the_image_of_point_4(compose):
    def dropping(g, f):
        table = list(compose(g, f).table)
        table[4:5] = [None] * len(table[4:5])
        return PInjMorphism._make(f.src, g.dst, tuple(table))
    return dropping


def _dropping_the_right_points_above_3(join):
    return lambda f, g: join(f, PInjMorphism._make(g.src, g.dst, g.table[:4] + (None,) * len(g.table[4:])))


def _dropping_one_pair(transpose):
    def dropping(rows, src, dst):
        cols = list(transpose(rows, src, dst).rows)
        lowest = next((i for i, col in enumerate(cols) if col), None)
        if lowest is not None:
            cols[lowest] &= cols[lowest] - 1
        return RelMorphism._make(dst, src, tuple(cols))
    return dropping


# Call tables: each replaces ``Evaluator._compile`` by one whose table rows
# are made by ``row()``.

def _table_rows(row):
    def make(compile_):
        def compile_with(self, ref):
            clauses, _ = compile_(self, ref)
            self._compiled[ref] = code = (clauses, row())
            return code
        return compile_with
    return make


class _AnyFuelRow(dict):
    """A call-table row that answers a recorded outcome at any fuel."""

    def get(self, value, default=None):
        entry = dict.get(self, value, default)
        if entry is not None and entry[0] is not UNDEFINED:
            return entry[0], 1
        return entry


INF = float("inf")


class _CoarseStackRow(dict):
    """A call-table row that holds a call on the stack as undefined at every
    fuel, as the evaluator does, but finds a call on the stack by ``key(row,
    value)``: by its reference alone, by its value alone, or by both."""

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


def _stack_found_by(key):
    def make(compile_):
        on_stack: list = []
        return _table_rows(lambda: _CoarseStackRow(key, on_stack))(compile_)
    return make


def _bound_at_import(registry):
    suite = registry["pfix-identity"]
    bound = cli.Suite(suite.name, suite.categories, suite.randomized, suite.draws, cli.check_pfix_identity)
    return {**registry, suite.name: bound}


def _lets_floats_through(new):
    check = FinObject._check
    return _rebound(new, check=lambda size: None if type(size) is float else check(size))


# -- detectors -------------------------------------------------------------------

X1, X2 = FinObject(1), FinObject(2)
REL2 = HomSpace("rel", X2, X2)
STEP = RelMorphism.from_pairs(X2, X2, [(0, 1)])
SEED = RelMorphism.from_pairs(X2, X2, [(0, 0)])
SMALL = LawConfig(sizes=(1, 2))
SMALL_DSTOCH = LawConfig(sizes=(1, 2), trials=20, seed=1)
# f Z calls g Z: the same value, another reference.
G_CALLS = "fun g x = let y = g2 x in y\nfun g2 x = x\nfun f x = let y = g x in y\n"
PFIX_SUITES = ("pfix-adjoint", "conj-preservation", "pfix-identity")


def three_cycle():
    """psi(h, p) = p v h.s with s a 3-cycle: from bottom the chain runs p,
    p v p.s, p v p.s v p.s^2 and repeats its third iterate, so it takes four
    iterations.  A ParamExpr keeps the fixed points it was checked with, so
    each detector builds its own."""
    x = FinObject(3)
    space = HomSpace("rel", x, x)
    s = RelMorphism.from_pairs(x, x, [(0, 1), (1, 2), (2, 0)])
    return ParamExpr(JoinOf(Param(space, space), PreCompose(s, space)), space)


def skewed_family():
    def component(a, b):
        space = HomSpace("rel", a, b)
        skew = RelMorphism.from_pairs(b, b, [(0, 1)])
        return Seq(PostCompose(skew, space), JoinWith(skew))

    return NaturalFamily("skewed", "rel", IdentityFunctor(), IdentityFunctor(), component)


def _corner_family():
    # h, p |-> h v p v {(0, 0)} in every hom-set: the constant does not
    # transport, so the iterates and the fixed points do not commute either.
    def component(a, b):
        space = HomSpace("rel", a, b)
        corner = RelMorphism.from_pairs(a, b, [(0, 0)])
        return ParamExpr(JoinOf(JoinOf(IdentityFn(space), Param(space, space)), Const(corner, space)), space)

    return NaturalFamily("corner", "rel", IdentityFunctor(), IdentityFunctor(), component)


def _skewed_pfix():
    """p |-> least h with h = STEP.h v p: not self-conjugate."""
    return ParamExpr(JoinOf(PostCompose(STEP, REL2), Param(REL2, REL2)), REL2)


def _main(argv) -> tuple[int, str]:
    """``revcat`` run in this process: its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _exit(*argv) -> int:
    return _main(argv)[0]


def _suite_counts(category, *suites) -> dict:
    """``laws --seed 1`` with ``suites``: the exit code, and each suite's
    violations and checks."""
    code, out = _main(["laws", "--category", category, "--seed", "1", "--format", "json",
                       *(arg for suite in suites for arg in ("--suite", suite))])
    entries = json.loads(out)["suites"]
    return {"passed": code == 0, "exit": code,
            "suites": {name: [len(entry["violations"]), entry["checked"]] for name, entry in entries.items()}}


def _each(test, cases: dict) -> None:
    """``test`` on every case, as one assertion that names the cases that failed."""
    failed = []
    for name, args in cases.items():
        try:
            test(*args)
        except (AssertionError, pytest.fail.Exception):
            failed.append(name)
        except Exception as exc:  # an error fails a test too
            failed.append(f"{name} ({type(exc).__name__})")
    assert not failed, "failed: " + " ".join(failed)


def _with_fixtures(test) -> None:
    """A tier-1 test that takes ``capsys`` and ``monkeypatch``, run outside pytest."""
    out = io.StringIO()

    def readouterr():
        text = out.getvalue()
        out.seek(0)
        out.truncate()
        return SimpleNamespace(out=text)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        test(capsys=SimpleNamespace(readouterr=readouterr), monkeypatch=patch)


def _unshrunk(test, strategy, examples: int) -> None:
    """A hypothesis test's own examples, derandomized and unshrunk: the first
    failure is enough here."""
    run = settings(max_examples=examples, deadline=None, database=None, derandomize=True,
                   phases=[Phase.generate])
    given(strategy)(run(test.hypothesis.inner_test))()


def _asked_twice() -> LawReport:
    # add (S (S Z), Z) needs fuel 3: asked at fuel 10, then at fuel 2.
    value = parse_value("(S (S Z), Z)")
    return check_call_table(Evaluator(bundled_program("add")), CallRef("add"), [(value, 10), (value, 2)])


def _parity_of_a_two_field_class() -> None:
    # test_value_classes's parity check on a class frozen while the fault is set.
    @record.frozen
    class TwoFields:
        first: int
        last: int

    problems = test_value_classes.differences(TwoFields, (1, 2), (3, 4))
    assert not problems, "; ".join(problems)


# Checker calls: each returns a LawReport.  Those a patched row names are
# columns of the catch matrix too.
CHECKS: dict[str, Callable[[], LawReport]] = {
    "park-induction": lambda: check_park_induction("rel"),
    "dinaturality": lambda: check_dinaturality("rel"),
    "diagonal": lambda: check_diagonal("rel"),
    "pfix-identity-3-cycle": lambda: check_pfix_identity(three_cycle()),
    "pfix-adjoint-3-cycle": lambda: check_pfix_adjoint(three_cycle()),
    **{f"rel {suite}": functools.partial(law_suite, "rel", suite, SMALL)
       for suite in ("dagger", "enrichment", "monotone-dagger", "order-iso")},
    **{f"pinj {suite}": functools.partial(law_suite, "pinj", suite, SMALL) for suite in ("dagger", "order-iso")},
    "dstoch dagger": lambda: law_suite("dstoch", "dagger", LawConfig(trials=50, seed=1)),
    **{f"dstoch {suite}": functools.partial(law_suite, "dstoch", suite, SMALL_DSTOCH)
       for suite in ("enrichment", "monotone-dagger", "order-iso")},
    "pinj-join": lambda: check_pinj_join(PInjMorphism.join),
    "pinj-in-rel": lambda: check_pinj_in_rel(sizes=(5, 17), draws=50),
    "pinj-in-dstoch": lambda: check_pinj_in_dstoch({5: 50, 17: 50}),
    "identity-compose": lambda: check_identity_compose("rel", sizes=(0, 1, 2, 3)),
    "call-table-fuels": _asked_twice,
    # add (S Z, Z) calls add (Z, Z): the same reference, another value.
    "call-table-add": lambda: check_call_table(
        Evaluator(bundled_program("add")), CallRef("add"), [(parse_value("(S Z, Z)"), 10)]),
    "call-table-g": lambda: check_call_table(
        Evaluator(parse_program(G_CALLS)), CallRef("f"), [(parse_value("Z"), 10)]),
    "roundtrip-add": lambda: roundtrip_check(bundled_program("add"), "add", {}, 50, 30, 1,
                                             value_gen=random_peano_pair),
    "roundtrip-swap": lambda: roundtrip_check(bundled_program("swap"), "swap", {}, 10, 5, 1,
                                              value_gen=lambda rng: random_peano_pair(rng, limit=4)),
    "fix-adjoint": lambda: check_fixed_point_adjoint(Seq(PostCompose(STEP, REL2), JoinWith(SEED))),
    "pfix-adjoint": lambda: check_pfix_adjoint(_skewed_pfix()),
    "conj-preservation": lambda: check_conj_preservation(_skewed_pfix()),
    "pfix-identity": lambda: check_pfix_identity(ParamExpr(JoinOf(IdentityFn(REL2), Param(REL2, REL2)), REL2)),
    "dagger-trace": lambda: check_dagger_trace("rel", 1, 2, 1),
    # On broken inputs: not columns, and the control does not run them.
    "naturality-mixed": lambda: check_naturality(mixed_family(), X2, X2, X2, X1, fuel=4),
    "naturality-corner": lambda: check_naturality(_corner_family(), X2, X2, X1, X1, fuel=2),
    "self-conjugate-skewed": lambda: check_self_conjugate(skewed_family(), X2, X2),
}

# ``revcat`` runs and test-side checks that the control runs too.
RUNS: dict[str, Callable] = {
    "laws --category rel --seed 1": lambda: _exit("laws", "--category", "rel", "--seed", "1"),
    "laws --category pinj --seed 1": lambda: _exit("laws", "--category", "pinj", "--seed", "1"),
    **{f"laws {category} pfix-identity{beside}": functools.partial(_suite_counts, category, *suites)
       for category in ("rel", "pinj")
       for beside, suites in (("", PFIX_SUITES[2:]), (" beside its draw sharers", PFIX_SUITES))},
    "laws rel 0,1,2 dagger": lambda: _exit("laws", "--category", "rel", "--sizes", "0,1,2", "--suite", "dagger"),
    "laws rel 0,1,2 dagger dagger-trace": lambda: _exit(
        "laws", "--category", "rel", "--sizes", "0,1,2", "--suite", "dagger", "--suite", "dagger-trace"),
    "value-class parity": _parity_of_a_two_field_class,
}

# Tier-1 tests, each run on the examples and cases the suite runs it on,
# where it needs fixtures with stand-ins for them.  The suite runs each with
# no fault set, so the control does not run them again.
TESTS: dict[str, Callable[[], None]] = {
    "exit contract of mutated programs": test_exit_contract.test_mutated_programs_keep_the_exit_contract,
    "exit contract of mutated fix documents": lambda: _unshrunk(
        test_exit_contract.test_mutated_functional_documents_keep_the_exit_contract, st.data(), 250),
    "each pfix iterated once": lambda: _with_fixtures(
        test_shared_draws.test_each_functional_and_parameter_is_iterated_once),
    "one conjugate per draw": lambda: _with_fixtures(test_shared_draws.test_pfix_identity_alone_builds_no_conjugate),
    "draws go once used": lambda: _with_fixtures(
        test_shared_draws.test_a_draw_and_its_conjugate_go_once_the_run_moves_past_them),
    "the tracer sees every check": lambda: test_bench_contract.check_every_check_traced(
        test_bench_contract.traced_laws(test_bench_contract.TRACED_ARGV)),
    "value draws": lambda: _each(test_value_draws.test_each_draw_is_the_reference_draw_on_the_same_stream,
                                 {str(limit): (limit,) for limit in test_value_draws.LIMITS}),
    "renamed map runs as dagger_ref": functools.partial(
        test_revlang_invert.test_the_renamed_program_runs_each_inverse_as_dagger_ref_does,
        *test_revlang_invert.DRAWS[2]),
    "denotation of map~ is the dagger": lambda: test_revlang_invert.test_denotation_of_the_inverse_is_the_dagger(
        "map", "map", {"g": CallRef("inc")}),
    "random programs invert and run": test_revlang_interned.test_random_valid_programs_invert_print_and_run,
    "float sizes refused": lambda: _each(
        test_fin_objects.test_a_size_equal_to_an_int_but_not_an_int_is_refused,
        {"float-alias-first": (float, True), "float-int-first": (float, False)}),
    "hom-set refuses assignment": lambda: _each(
        test_value_classes.test_an_interned_value_cannot_be_assigned_or_deleted,
        {name: (value, name) for value, name in test_value_classes.REFUSED if type(value) is HomSpace}),
    "kleene stages of the inverse": lambda: _each(
        test_revlang_invert.test_every_kleene_stage_of_the_inverse_is_the_dagger_of_the_stage,
        {"swap": ("swap", {}, 1), "add": ("add", {}, 6), "map<inc>": ("map", {"g": CallRef("inc")}, 4)}),
}

DETECTORS: dict[str, Callable] = {**CHECKS, **RUNS, **TESTS}

NOT_PASSED = {"passed": False}

_ROWS = [
    # -- Kleene engines.  Park induction cannot see an engine that stops one
    # step early: an iterate below the least fixed point lies below every
    # prefixed point too.  The adjoint laws cannot catch an engine cut short:
    # conjugation commutes with each iterate, so a chain stopped early agrees
    # with the chain of the conjugate stopped at the same step.  The random
    # functionals of the default runs reach their fixed points within two
    # steps, so none of them sees the two-step engine.
    Fault("an engine that starts at the top", "revcat.order._iterate", _from_top,
          {"park-induction": {"laws": {"park-induction"}}}),
    Fault("an engine that returns the first prefixed point from the top", "revcat.order._iterate",
          _first_prefixed_point, {"park-induction": {"laws": {"park-induction"}}}),
    Fault("an engine that stops one step early", "revcat.order._iterate", _one_step_early, {
        "park-induction": {"passed": True},
        "dinaturality": {"laws": {"dinaturality", "dinaturality-conj"}},
        "diagonal": NOT_PASSED,
        # pfix-identity reads the fixed points that pfix-adjoint, run first
        # on the same draw, left in its memo; the wrong engine still shows.
        **{f"laws {category} pfix-identity{beside}": {"exit": 1, "suites": only("pfix-identity", *counts)}
           for category, counts in (("rel", (2681, 3200)), ("pinj", (647, 871)))
           for beside in ("", " beside its draw sharers")},
    }),
    Fault("an engine that stops after two steps", "revcat.order._iterate", _two_steps, {
        "pfix-identity-3-cycle": {"violations": 387},
        "pfix-adjoint-3-cycle": {"passed": True},
        "laws --category rel --seed 1": {"exit": 0},
        "laws --category pinj --seed 1": {"exit": 0},
    }),
    # -- daggers, composes, joins and orders
    Fault("a rel dagger that complements", "revcat.cat.rel.RelMorphism.dagger",
          lambda converse: lambda f: complement(converse(f)), {
              "rel dagger": {"laws": at_least("identity-dagger", "compose-dagger")},
              "rel monotone-dagger": {"laws": at_least("dagger-monotone")},
              "rel order-iso": {"laws": at_least("order-iso", "dagger-preserves-sup", "dagger-strict")},
          }),
    Fault("a rel compose that relates everything", "revcat.cat.rel.RelMorphism.compose",
          lambda compose: lambda g, f: complement(RelMorphism.bottom(f.src, g.dst)),
          {"rel enrichment": {"laws": at_least("bottom-after", "bottom-before")}}),
    Fault("a pinj join that skips the injectivity test", "revcat.cat.pinj.PInjMorphism.join", _unchecked_pinj_join, {
        "pinj-join": {"laws": {"join-graph-union"}, "witness": lambda witness: witness["join-graph-union"].startswith(
            "f=PInj(3->3, {0: 0}) g=PInj(3->3, {1: 0}) ")},
    }),
    Fault("a dstoch dagger that transposes nothing", "revcat.cat.dstoch.StochMorphism.dagger",
          lambda dagger: lambda f: f, {"dstoch dagger": {"laws": at_least("compose-dagger")}}),
    # The dagger suite checks identity-dagger first, so its first witness
    # is the suite's first violation.
    Fault("a pinj dagger that forgets every point", "revcat.cat.pinj.PInjMorphism.dagger",
          lambda dagger: lambda f: PInjMorphism.bottom(f.dst, f.src), {
              "pinj dagger": {"laws": at_least("identity-dagger", "double-dagger"),
                              "witness": lambda w: w["identity-dagger"] == "PInj(1->1, {0: 0})"},
              "pinj order-iso": {"laws": at_least("order-iso")},
          }),
    Fault("a dstoch leq that refuses everything", "revcat.cat.dstoch.StochMorphism.leq",
          lambda leq: lambda f, g, tolerance=0.0: False, {
              "dstoch enrichment": {"laws": at_least("compose-monotone-left", "compose-monotone-right")},
              "dstoch monotone-dagger": {"laws": at_least("dagger-monotone")},
              "dstoch order-iso": {"laws": at_least("order-iso-ordered")},
          }),
    # Both act past the enumerated sizes only.
    Fault("a pinj compose that drops the image of point 4", "revcat.cat.pinj.PInjMorphism.compose",
          _dropping_the_image_of_point_4,
          {"pinj-in-rel": {"laws": {"compose"}}, "pinj-in-dstoch": {"laws": {"compose"}}}),
    Fault("a pinj join that drops the right points above 3", "revcat.cat.pinj.PInjMorphism.join",
          _dropping_the_right_points_above_3, {"pinj-in-rel": {"laws": {"join"}}}),
    # -- call tables.  The roundtrip laws cannot catch a table that ignores
    # least fuel: fuel-adjoint runs the forward and the backward call at one
    # fuel, and below their least fuel both answer their recorded outcomes,
    # so both sides are wrong in the same way and the law holds.
    Fault("a call table that ignores least fuel", "revcat.revlang.interp.Evaluator._compile",
          _table_rows(_AnyFuelRow), {"call-table-fuels": NOT_PASSED, "roundtrip-add": {"passed": True}}),
    Fault("a cycle found by the reference alone", "revcat.revlang.interp.Evaluator._compile",
          _stack_found_by(lambda row, value: id(row)), {"call-table-add": NOT_PASSED}),
    Fault("a cycle found by the value alone", "revcat.revlang.interp.Evaluator._compile",
          _stack_found_by(lambda row, value: value), {"call-table-g": NOT_PASSED}),
    Fault("a cycle found by the whole call", "revcat.revlang.interp.Evaluator._compile",
          _stack_found_by(lambda row, value: (id(row), value)),
          {"call-table-add": {"passed": True}, "call-table-g": {"passed": True}}),
    # -- the text of each checker's first witness per law
    Fault("a fix conjugate that is the functional itself", "revcat.functionals.fixpoints.conj",
          lambda conj: lambda phi: phi, {"fix-adjoint": {"witness": {
              "fix-adjoint": "fix=Rel(2->2, [(0, 0), (0, 1)]) fix-of-conjugate=Rel(2->2, [(0, 0), (0, 1)])"}}}),
    Fault("a pfix conjugate that is the functional itself", "revcat.functionals.fixpoints.conj_param",
          lambda conj_param: lambda psi: psi, {
              "pfix-adjoint": {"witness": {
                  "pfix-adjoint": "p=Rel(2->2, [(1, 0)]) lhs=Rel(2->2, [(0, 1), (1, 1)]) rhs=Rel(2->2, [(0, 1)])"}},
              "conj-preservation": {"witness": {"conj-preservation":
                                    "p=Rel(2->2, [(1, 0)]) lhs=Rel(2->2, [(1, 0)]) rhs=Rel(2->2, [(1, 0), (1, 1)])"}},
          }),
    Fault("a pfix that is always bottom", "revcat.functionals.fixpoints.kleene_pfix",
          lambda kleene_pfix: lambda step, p, space: SimpleNamespace(value=space.bottom),
          {"pfix-identity": {"witness": {
              "pfix-fixpoint": "p=Rel(2->2, [(1, 0)]) pfix=Rel(2->2, []) psi(pfix,p)=Rel(2->2, [(1, 0)])"}}}),
    # It relates the last input to the first output: its dagger relates the
    # first input to the last output, so neither law holds.
    Fault("a trace from the last input to the first output", "revcat.functionals.trace.trace",
          lambda trace: lambda f, x, y, u: RelMorphism.from_pairs(x, y, [(x.size - 1, 0)]),
          {"dagger-trace": {"witness": {
              "trace-dagger": "f=Rel(2->3, [])",
              "trace-natural": "f=Rel(2->3, []) a=Rel(1->1, []) b=Rel(2->2, [])",
          }}}),
    Fault("a family that is not natural", None, None, {"naturality-mixed": {"witness": {
        "family-square": "u=Rel(2->2, [(1, 0)]) v=Rel(2->1, [(1, 0)]) h=Rel(2->2, [(0, 1)]) p=Rel(2->2, [])"}}}),
    Fault("a family with a constant that does not transport", None, None, {"naturality-corner": {"witness": {
        "family-square": "u=Rel(2->2, []) v=Rel(1->1, []) h=Rel(2->1, []) p=Rel(2->1, [])",
        "iterate-square": "n=1 u=Rel(2->2, []) v=Rel(1->1, []) p=Rel(2->1, [])",
        "pfix-square": "u=Rel(2->2, []) v=Rel(1->1, []) p=Rel(2->1, [])",
    }}}),
    Fault("a family that is not self-conjugate", None, None, {"self-conjugate-skewed": {"witness": {
        "dagger-preservation": "f=Rel(2->2, [])",
        "conjugate-formulation": "f=Rel(2->2, [])",
    }}}),
    Fault("an inverse of swap that leaves its input as it is", "revcat.revlang.interp.invert_def",
          lambda invert_def: lambda fdef: parse_program("fun swap x = x\n").defs["swap"],
          {"roundtrip-swap": {"witness": {
              "roundtrip": "v=Pair(S(Z), Z) w=Pair(Z, S(Z)) back=Pair(Z, S(Z))",
              "fuel-adjoint": "v=Pair(S(Z), Z) w=Pair(Z, S(Z)) fuel=3",
          }}}),
    # -- the exit contract: a raw exception escapes as exit 4.
    Fault("a parser that reads past its last token", "revcat.revlang.parser.tokenize",
          lambda tokenize: lambda source: tokenize(source)[:-1],
          {"exit contract of mutated programs": {"raised": containing("error: internal: IndexError")}}),
    Fault("a document reader that indexes a missing field", "revcat.functionals.expr._field",
          lambda field: lambda doc, key: doc[key],
          {"exit contract of mutated fix documents": {"raised": containing("error: internal: KeyError")}}),
    # -- faults under a memo.  The table fault leaves out the left operand's
    # last row, which drops the paths through the last middle point on both
    # sides of (g.f)+ = f+.g+, so the dagger suite cannot see it; the trace
    # naturality law of dagger-trace and the identity laws do.
    Fault("a rel converse that drops one pair", "revcat.cat.rel._transpose", _dropping_one_pair,
          {"laws rel 0,1,2 dagger": {"exit": 1}}, fresh=True),
    Fault("a subset-join table that leaves out the last row", "revcat.cat.rel._subset_joins",
          lambda joins: lambda rows: joins(rows[:-1] + (0,) if rows else rows), {
              "laws rel 0,1,2 dagger dagger-trace": {"exit": 1},
              "identity-compose": {"violations": 1162, "checked": 1378},
          }, fresh=True),
    Fault("a value-class comparison that drops the last field", "revcat.record.attrgetter",
          lambda attrgetter: lambda *names: attrgetter(*names[:-1]), {"value-class parity": {"raised": (
              "equal values are not equal with the twin's hash; a change to 'last' compares unlike the twin")}}),
    # -- mutations each pinned once by a new test, now kept as rows
    Fault("a pfix memo that keeps nothing", "revcat.functionals.fixpoints._pfix_of",
          mutant(("step, known = psi.apply, psi.fixed_points", "step, known = psi.apply, {}")),
          {"each pfix iterated once": NOT_PASSED}),
    Fault("a conjugate memo that keeps nothing", "revcat.functionals.fixpoints._conjugate_of",
          mutant(("conjugate = psi._conjugate\n", "conjugate = None\n")), {"one conjugate per draw": NOT_PASSED}),
    Fault("draws kept in a list", "revcat.cli.cmd_laws",
          mutant(("for draw in draws(args.category, config):", "for draw in list(draws(args.category, config)):")),
          {"draws go once used": NOT_PASSED}),
    # The tracer rebinds checkers by name for good, so this row is fresh.
    Fault("a pfix-identity checker bound at import", "revcat.cli.REGISTRY", _bound_at_import,
          {"the tracer sees every check": NOT_PASSED}, fresh=True),
    Fault("numeral draws one too high", "revcat.revlang.denote.numerals",
          lambda numerals: lambda limit: numerals(limit + 1)[1:],
          {"value draws": {"raised": "failed: 1 6 12 24 30"}}),
    # ``from .syntax import dagger_ref`` copies the target, so this row is fresh.
    Fault("a dagger_ref that leaves static arguments un-inverted", "revcat.revlang.syntax.dagger_ref",
          mutant(("CallRef(top.name, args, not top.inverted)", "CallRef(top.name, top.args, not top.inverted)")),
          {"renamed map runs as dagger_ref": NOT_PASSED, "denotation of map~ is the dagger": NOT_PASSED},
          fresh=True),
    Fault("a renamed program that flips every call's mark", "revcat.revlang.invert._renamed",
          mutant(("args, r.inverted))", "args, not r.inverted))")), {"random programs invert and run": NOT_PASSED}),
    # It interns float sizes for good, so this row is fresh.
    Fault("a FinObject check that lets floats through", "revcat.cat.objects.FinObject.__new__", _lets_floats_through,
          {"float sizes refused": {"raised": "failed: float-alias-first float-int-first"}}, fresh=True),
    # It moves the bottom of an interned hom-set for good, so this row is fresh.
    Fault("a hom-set that takes assignments", "revcat.cat.ops.HomSpace.__setattr__", lambda refuse: object.__setattr__,
          {"hom-set refuses assignment": {"raised": "failed: category src dst bottom metric other (AttributeError)"}},
          fresh=True),
    Fault("a call table that records the call's fuel as its need", "revcat.revlang.interp.Evaluator.call",
          mutant(("row[value] = (result, 1)", "row[value] = (result, fuel)"),
                 ("entry = (result, need)", "entry = (result, frame[4])")),
          {"kleene stages of the inverse": {"raised": "failed: swap add map<inc>"}}),
]

# The control: no fault set, and every detector that a patched row names
# passes, the tier-1 tests aside.
_PATCHED = dict.fromkeys(detector for row in _ROWS if row.target for detector in row.expect)
CONTROL = Fault("none", None, None, {
    detector: {"passed": True, **({"checked": 1378} if detector == "identity-compose" else {})}
    for detector in _PATCHED if detector not in TESTS
})
FAULTS = {row.name: row for row in [CONTROL, *_ROWS]}
COLUMNS = [detector for detector in _PATCHED if detector in CHECKS]


# -- running ---------------------------------------------------------------------

def run(detector: str) -> dict:
    try:
        result = DETECTORS[detector]()
    except (AssertionError, pytest.fail.Exception) as failed:
        result = failed
    return outcome(result)


def outcome_of(name: str, detector: str) -> dict:
    """What ``detector`` gives with fault ``name`` set."""
    fresh = _fresh_runs()
    fault = FAULTS[name]
    if fault.fresh:
        return fresh[name].result()[detector]
    with pytest.MonkeyPatch.context() as patch:
        set_fault(fault, patch)
        return run(detector)


@functools.cache
def _fresh_runs() -> dict:
    """The outcomes of every fresh row, as futures: from the first call on,
    two processes at a time work through them while this one goes on."""
    pool = ThreadPoolExecutor(max_workers=2)
    runs = {name: pool.submit(in_fresh_process, "outcomes", name) for name, fault in FAULTS.items() if fault.fresh}
    pool.shutdown(wait=False)
    return runs


def outcomes(name: str) -> dict:
    """Set fault ``name`` in this process for good, and run each detector its row names."""
    set_fault(FAULTS[name], pytest.MonkeyPatch())
    return {detector: run(detector) for detector in FAULTS[name].expect}


def in_fresh_process(call: str, name: str, timeout: float = 60):
    """``faults.<call>(name)`` in a fresh Python process: what it returned."""
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys, faults\nprint(json.dumps(faults.{call}(sys.argv[1])))", name],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TEST_DIR)])},
    )
    if done.returncode:
        raise RuntimeError(f"{call}({name!r}) exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _argv_columns() -> dict[str, list[str]]:
    """The default ``laws`` run of each category, and the benchmark's argvs."""
    path = ROOT / "bench" / "workloads.py"
    # Run from its text, so that no bytecode cache is written next to it.
    workloads = sys.modules["bench_workloads"] = types.ModuleType("bench_workloads")
    workloads.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), workloads.__dict__)
    argvs = [["laws", "--category", category, "--seed", "1"] for category in CATEGORIES]
    argvs += [list(invocation.argv) for invocations in workloads.workloads(1).values() for invocation in invocations]
    return {" ".join(argv): argv for argv in argvs}


def matrix_row(name: str) -> dict:
    """Set fault ``name`` in this process for good, and run every column."""
    set_fault(FAULTS[name], pytest.MonkeyPatch())
    row: dict = {column: _main(argv)[0] for column, argv in _argv_columns().items()}
    for column in COLUMNS:
        try:
            report = DETECTORS[column]()
        except Exception as exc:  # a fault may break the checker itself
            row[column] = f"raised {type(exc).__name__}"
        else:
            row[column] = sorted({v.law for v in report.violations})
    return row


def _matrix_row_or_failure(name: str):
    try:
        return in_fresh_process("matrix_row", name)
    except subprocess.TimeoutExpired:
        return "timed out after 60 s"
    except RuntimeError as exc:
        return str(exc).splitlines()[-1]


def main() -> None:
    names = [name for name, fault in FAULTS.items() if name == "none" or fault.target]
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(_matrix_row_or_failure, names))
    print(json.dumps(dict(zip(names, rows)), indent=1))


if __name__ == "__main__":
    main()
