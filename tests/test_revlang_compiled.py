"""The compiled, stack-based evaluator against the recursive reference."""
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from revcat.errors import UnknownFunction
from revcat.revlang.denote import random_nat_list, random_peano_pair, random_value
from revcat.revlang.interp import STUCK, UNDEFINED, Evaluator
from revcat.revlang.invert import invert_binding, invert_program, toggle_suffix
from revcat.revlang.parser import parse_callref_text, parse_program, parse_value
from revcat.revlang.syntax import CallRef, Pair, S, Z, dagger_ref

from bundled import bundled_program
from oracles import ReferenceEvaluator

PROGRAMS = Path(__file__).resolve().parents[1] / "bench" / "programs"


def _cases():
    """(program, reference) pairs: every entry, its ``~`` form, and the
    renamed entry of the inverted program."""
    sources = [
        (bundled_program("swap"), "swap"),
        (bundled_program("add"), "add"),
        (bundled_program("map"), "map<inc>"),
        (parse_program((PROGRAMS / "add.rvl").read_text(encoding="utf-8")), "add"),
        (parse_program((PROGRAMS / "map.rvl").read_text(encoding="utf-8")), "map<inc>"),
    ]
    cases = []
    for program, text in sources:
        ref = parse_callref_text(text)
        inverted = invert_program(program)
        inv_ref = CallRef(
            toggle_suffix(ref.name),
            tuple(invert_binding(a, program) for a in ref.args),
        )
        cases += [(program, ref), (program, dagger_ref(ref)), (inverted, inv_ref)]
    # One compiled evaluator per case, reused across examples as
    # ``roundtrip_check`` reuses its own.
    return [(Evaluator(p), ReferenceEvaluator(p), ref) for p, ref in cases]


CASES = _cases()
GENERATORS = [
    lambda rng: random_value(rng, 16),
    random_peano_pair,
    random_nat_list,
]


@settings(max_examples=300)
@given(
    st.sampled_from(CASES),
    st.sampled_from(GENERATORS),
    st.integers(0, 2**32),
    st.integers(0, 40),
)
def test_compiled_evaluator_agrees_with_the_reference(case, gen, seed, fuel):
    compiled, reference, ref = case
    value = gen(Random(seed))
    assert compiled.call(ref, value, fuel) == reference.call(ref, value, fuel)


@pytest.mark.parametrize(
    "source",
    [
        "fun dup (x, x) = x",
        "fun id z = z\nfun same (x, y) = let x = id y in x",
    ],
)
@pytest.mark.parametrize("text", ["(Z, Z)", "(S Z, S Z)", "(Z, S Z)", "(Nil, Z)", "Z"])
def test_non_linear_patterns_compare_as_the_reference_does(source, text):
    program = parse_program(source)
    ref = CallRef(list(program.defs)[-1])
    value = parse_value(text)
    got = Evaluator(program).call(ref, value, 5)
    assert got == ReferenceEvaluator(program).call(ref, value, 5)
    equal = isinstance(value, Pair) and value.left == value.right
    assert got == value.left if equal else got is STUCK


def test_unknown_callee_is_raised_only_when_called():
    program = parse_program("fun f x = let y = nope x in y")
    for evaluator in (Evaluator(program), ReferenceEvaluator(program)):
        assert evaluator.call(CallRef("f"), Z(), 1) is UNDEFINED
        with pytest.raises(UnknownFunction):
            evaluator.call(CallRef("f"), Z(), 2)


def _numeral(n):
    t = Z()
    for _ in range(n):
        t = S(t)
    return t


def _count_s(t):
    """Number of S nodes above a Z, counted without recursion."""
    n = 0
    while type(t) is S:
        t, n = t.arg, n + 1
    assert type(t) is Z
    return n


def test_add_and_its_inverse_run_on_a_numeral_of_depth_100000():
    depth = 100_000
    evaluator = Evaluator(bundled_program("add"))
    add = CallRef("add")
    value = Pair(_numeral(depth), _numeral(3))
    assert evaluator.call(add, value, depth) is UNDEFINED
    total = evaluator.call(add, value, depth + 1)
    assert (_count_s(total.left), _count_s(total.right)) == (depth, depth + 3)
    back = evaluator.call(dagger_ref(add), total, depth + 1)
    assert (_count_s(back.left), _count_s(back.right)) == (depth, 3)
