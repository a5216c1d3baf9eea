"""Value-universe enumeration and multi-parameter definitions."""
import pytest

from revcat.errors import TooLarge
from revcat.revlang.denote import denote, enumerate_values, roundtrip_check
from revcat.revlang.invert import invert_program
from revcat.revlang.parser import parse_program, parse_value
from revcat.revlang.syntax import CallRef, show_program
from revcat.revlang.validate import validate_program

from bundled import bundled_program
from checkers import evaluate
from oracles import term_size


def universe_counts_by_recurrence(bound):
    """Independent recurrence: two leaves, one unary, two binary constructors."""
    f = {0: 0, 1: 2}
    for n in range(2, bound + 1):
        f[n] = f[n - 1] + 2 * sum(f[i] * f[n - 1 - i] for i in range(1, n - 1))
    return [f[n] for n in range(1, bound + 1)]


def test_universe_counts_match_the_recurrence():
    expected = universe_counts_by_recurrence(6)
    assert expected == [2, 2, 10, 26, 114, 402]  # frozen from the recurrence
    got = [len([v for v in enumerate_values(6) if term_size(v) == n]) for n in range(1, 7)]
    assert got == expected
    assert len(enumerate_values(6)) == sum(expected) == 556


def test_universe_contains_each_term_once_and_respects_atoms():
    universe = enumerate_values(4, atoms=("b", "a"))
    assert len(universe) == len(set(universe))
    assert parse_value("'a") in universe and parse_value("'b") in universe
    assert parse_value("S 'a") in universe
    assert all(term_size(v) <= 4 for v in universe)


def test_denote_refuses_a_universe_past_its_limit():
    swap = bundled_program("swap")
    assert len(denote(swap, "swap", {}, universe_bound=9, fuel=1).table) == 38_962
    with pytest.raises(TooLarge, match="165588 terms exceeds the limit of 50000"):
        denote(swap, "swap", {}, universe_bound=10, fuel=1)


def test_pair_constructor_sugar_forms_agree():
    assert parse_value("Pair Z Nil") == parse_value("(Z, Nil)")


def test_multi_parameter_definition_runs_and_inverts():
    source = (
        "fun inc x = S x\n"
        "fun both<g, h> (a, b) = let c = g a in let d = h b in (d, c)\n"
    )
    program = parse_program(source)
    assert validate_program(program) == []
    bindings = {"g": CallRef("inc"), "h": CallRef("inc", (), True)}
    value = parse_value("(Z, S Z)")
    image = evaluate(program, "both", bindings, value, 50)
    assert image == parse_value("(Z, S Z)")  # inc up on a, inc down on b, swapped

    inverse = invert_program(program)
    assert "fun both_inv<g, h>" in show_program(inverse)
    recovered = evaluate(
        inverse,
        "both_inv",
        {"g": CallRef("inc_inv"), "h": CallRef("inc_inv", (), True)},
        image,
        50,
    )
    assert recovered == value
    assert invert_program(inverse) == program

    report = roundtrip_check(
        program, "both", bindings, trials=60, fuel=100, seed=17,
        value_gen=lambda rng: parse_value("(Z, S (S Z))"),
    )
    assert report.passed
