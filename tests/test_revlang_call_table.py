"""The evaluator's call table against the recursive reference, at every fuel.

Each ``Evaluator`` answers a call it has seen from its table: the outcome
at or above the least fuel the call needs, ``UNDEFINED`` below it.  The
queries here ask the same calls and their subcalls at fuels below, at and
above that least fuel, rising and falling, so that answers come from the
table in every order it can be filled.  A call that reaches itself is
undefined at every fuel; the reference shows that only up to the fuels its
recursion reaches, and the evaluator answers it at any fuel.
"""
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from revcat.cli import main
from revcat.errors import UnknownFunction
from revcat.revlang.interp import STUCK, UNDEFINED, Evaluator
from revcat.revlang.parser import parse_callref_text, parse_program
from revcat.revlang.syntax import CallRef, Cons, Nil, Pair, S, Z, dagger_ref, show_term
from revcat.revlang.validate import require_valid

from bundled import GROW_INVERTED, bundled_program
from checkers import check_call_table
from oracles import ReferenceEvaluator

# ``f`` is the identity on numerals, reached through two calls per level:
# 2^n calls on S^n Z without the table, n + 1 with it.
TWICE = """\
fun f Z = Z
fun f (S x) = let y = f x in let z = f y in S z
"""
# ``f`` of S^k Z, k >= 1, runs its recursive let, then gets STUCK on the
# pattern of its second: STUCK from fuel k + 1 on, UNDEFINED below.
STUCK_AFTER_A_LET = """\
fun g x = (x, Z)
fun f Z = Z
fun f (S x) = let y = f x in let (z, Nil) = g y in S z
"""
# Three ways for a call to reach itself: directly, through another
# definition, and after a let that succeeds (``h`` of Z is STUCK).
LOOP = "fun loop x = let y = loop x in y\n"
MUTUAL = """\
fun f x = let y = g x in y
fun g x = let y = f x in y
"""
AFTER_A_LET = """\
fun ident x = x
fun h (S x) = let y = ident x in let z = h (S y) in z
"""


def nat(n):
    t = Z()
    for _ in range(n):
        t = S(t)
    return t


def nat_list(heads):
    t = Nil()
    for h in reversed(heads):
        t = Cons(nat(h), t)
    return t


def least_fuel(program, ref, value, cap=40):
    """The least fuel at which the reference evaluator defines the call, or
    ``cap`` if it defines it at no fuel below."""
    for fuel in range(cap):
        if ReferenceEvaluator(program).call(ref, value, fuel) is not UNDEFINED:
            return fuel
    return cap


@dataclass
class Case:
    program: object
    ref: CallRef
    values: list
    needs: list = field(init=False)
    # Shared by every example, as one command shares its evaluator.
    shared: Evaluator = field(init=False)

    def __post_init__(self):
        require_valid(self.program)
        self.needs = [least_fuel(self.program, self.ref, v) for v in self.values]
        self.shared = Evaluator(self.program)


def _cases():
    add, mapped = bundled_program("add"), bundled_program("map")
    add_ref, map_ref = CallRef("add"), parse_callref_text("map<inc>")
    sums = [Pair(nat(a), nat(b)) for a in range(6) for b in range(3)]
    lists = [nat_list(h) for h in ([], [0], [2], [1, 0], [0, 3, 1], [2, 2, 0, 1])]
    return {
        "add": Case(add, add_ref, sums + [Nil(), Pair(Nil(), Z())]),
        "add~": Case(
            add,
            dagger_ref(add_ref),
            [Pair(nat(a), nat(a + b)) for a in range(6) for b in range(3)]
            + [Pair(nat(2), nat(1)), Z()],
        ),
        "map<inc>": Case(mapped, map_ref, lists + [Z(), Cons(Z(), Z())]),
        "map~<inc~>": Case(
            mapped,
            dagger_ref(map_ref),
            [nat_list(h) for h in ([], [1], [3], [2, 1], [1, 4, 2], [3, 3, 1, 2])]
            + [nat_list([1, 0, 2]), nat_list([0])],
        ),
        "twice": Case(parse_program(TWICE), CallRef("f"), [nat(n) for n in range(8)] + [Nil()]),
        "stuck-after-a-let": Case(
            parse_program(STUCK_AFTER_A_LET), CallRef("f"), [nat(n) for n in range(8)]
        ),
        "loop": Case(parse_program(LOOP), CallRef("loop"), [Z(), nat(2), Nil(), Pair(Z(), Nil())]),
        "mutual": Case(parse_program(MUTUAL), CallRef("f"), [Z(), nat(3), Nil()]),
        "after-a-let": Case(parse_program(AFTER_A_LET), CallRef("h"), [nat(n) for n in range(5)]),
    }


CASES = _cases()


@st.composite
def queries(draw, case):
    """Calls of ``case`` with fuels below, at and above each one's least
    fuel, each call's fuels rising or falling."""
    out = []
    for i in draw(st.lists(st.integers(0, len(case.values) - 1), min_size=1, max_size=6)):
        need = case.needs[i]
        fuels = {draw(st.integers(0, need)), need - 1, need, need + 1,
                 need + draw(st.integers(2, 6))} - {-1}
        out += [(case.values[i], f) for f in sorted(fuels, reverse=draw(st.booleans()))]
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_call_table_is_exact_at_every_fuel(data):
    case = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    asked = data.draw(queries(case))
    for evaluator in (Evaluator(case.program), case.shared):
        report = check_call_table(evaluator, case.ref, asked)
        assert report.passed, report.violations[:3]


def test_stuck_after_a_let_is_undefined_below_its_least_fuel():
    case = CASES["stuck-after-a-let"]
    evaluator = Evaluator(case.program)
    three = nat(3)
    assert case.needs[3] == 4
    assert evaluator.call(case.ref, three, 4) is STUCK
    assert evaluator.call(case.ref, three, 3) is UNDEFINED
    assert evaluator.call(case.ref, nat(2), 2) is UNDEFINED
    assert evaluator.call(case.ref, nat(2), 3) is STUCK


def test_a_grown_reference_is_exact_at_every_fuel_and_depth():
    # Each call binds ``g`` one ``map<...~>`` deeper than its caller.
    case = Case(parse_program(GROW_INVERTED), parse_callref_text("f<inc>"), [nat(n) for n in range(9)])
    rising = [(v, fuel) for v, need in zip(case.values, case.needs) for fuel in range(need + 2)]
    for asked in (rising, rising[::-1]):
        report = check_call_table(Evaluator(case.program), case.ref, asked)
        assert report.passed, report.violations[:3]


def table_entries(evaluator):
    return sum(len(row) for _, row in evaluator._compiled.values())


def test_a_call_made_twice_runs_once(tmp_path, capsys):
    path = tmp_path / "twice.rvl"
    path.write_text(TWICE)
    arg = "S (" * 40 + "Z" + ")" * 40
    assert main(["run", str(path), "f", "--arg", arg, "--fuel", "100"]) == 0
    assert capsys.readouterr().out.strip() == show_term(nat(40))
    program, f = parse_program(TWICE), CallRef("f")
    for n in (10, 20, 40):
        evaluator = Evaluator(program)
        assert evaluator.call(f, nat(n), n + 1) is nat(n)
        # One entry per distinct call f (S^k Z), k = 0..n.
        assert table_entries(evaluator) == n + 1
        assert evaluator.call(f, nat(n), n) is UNDEFINED
        assert table_entries(evaluator) == n + 1


@pytest.mark.parametrize("name", ["loop", "mutual", "after-a-let"])
def test_a_call_that_reaches_itself_is_undefined_at_any_fuel(name):
    case = CASES[name]
    evaluator = Evaluator(case.program)
    for value in case.values:
        got = evaluator.call(case.ref, value, 10**9)
        assert got is (STUCK if value is Z() and name == "after-a-let" else UNDEFINED)
    # No call is left on the stack: every row holds a finite fuel.
    assert all(need <= 10**9 for _, row in evaluator._compiled.values() for _, need in row.values())


def test_a_call_that_raises_leaves_no_call_on_the_stack():
    program = parse_program("fun f x = let y = nope x in y\n")
    evaluator = Evaluator(program)
    for _ in range(2):
        with pytest.raises(UnknownFunction):
            evaluator.call(CallRef("f"), Z(), 5)
