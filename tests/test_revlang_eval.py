import pytest

from revcat.errors import UnboundParameter, UnknownFunction
from revcat.revlang import (
    STUCK,
    UNDEFINED,
    CallRef,
    bundled_program,
    dagger_ref,
    eval_program,
    eval_ref,
    parse_callref_text,
    parse_program,
    parse_value,
    random_peano_pair,
)

from checkers import fuel_monotonicity_check


def nat(n):
    return parse_value("S " * n + "Z" if n else "Z")


def run(program, fname, text, fuel=100, bindings=None):
    return eval_program(program, fname, bindings or {}, parse_value(text), fuel)


def test_add_computes_sum_in_second_component():
    add = bundled_program("add")
    assert run(add, "add", "(S Z, S Z)", fuel=10) == parse_value("(S Z, S (S Z))")
    assert run(add, "add", "(Z, S Z)") == parse_value("(Z, S Z)")
    # hand unfolding: 2 nested calls for first argument 2
    assert run(add, "add", "(S (S Z), Z)", fuel=3) == parse_value("(S (S Z), S (S Z))")
    assert run(add, "add", "(S (S Z), Z)", fuel=2) is UNDEFINED


def test_swap_needs_one_fuel_unit():
    swap = bundled_program("swap")
    assert run(swap, "swap", "(Z, S Z)", fuel=1) == parse_value("(S Z, Z)")
    assert run(swap, "swap", "(Z, S Z)", fuel=0) is UNDEFINED


def test_fuel_zero_is_bottom_everywhere():
    add = bundled_program("add")
    assert run(add, "add", "(Z, Z)", fuel=0) is UNDEFINED


def test_stuck_on_unmatched_input():
    add = bundled_program("add")
    assert run(add, "add", "Nil") is STUCK


def test_stuck_when_let_pattern_rejects_result():
    program = parse_program(
        "fun g x = (x, Z)\nfun f a = let Nil = g a in Nil"
    )
    assert run(program, "f", "Z") is STUCK


def test_map_with_static_parameter():
    program = bundled_program("map")
    bindings = {"g": CallRef("inc")}
    assert eval_program(
        program, "map", bindings, parse_value("Cons Z (Cons (S Z) Nil)"), 100
    ) == parse_value("Cons (S Z) (Cons (S (S Z)) Nil)")
    assert run(program, "map", "Nil", bindings=bindings) == parse_value("Nil")


def test_marked_calls_run_the_inverse():
    program = bundled_program("add")
    ref = parse_callref_text("add~")
    assert eval_ref(program, ref, parse_value("(S Z, S (S Z))"), 100) == parse_value(
        "(S Z, S Z)"
    )
    mapped = bundled_program("map")
    entry = dagger_ref(parse_callref_text("map<inc>"))
    assert eval_ref(mapped, entry, parse_value("Cons (S Z) Nil"), 100) == parse_value(
        "Cons Z Nil"
    )


def test_binding_errors():
    program = bundled_program("map")
    with pytest.raises(UnboundParameter):
        eval_program(program, "map", {}, parse_value("Nil"), 10)
    with pytest.raises(UnknownFunction):
        eval_program(program, "nope", {}, parse_value("Nil"), 10)


def test_fuel_monotonicity_on_sampled_points():
    add = bundled_program("add")
    report = fuel_monotonicity_check(
        add, "add", {}, samples=300, max_fuel=24, seed=5,
        value_gen=lambda rng: random_peano_pair(rng, limit=12),
    )
    assert report.passed
    assert report.checked == 300


def test_defined_results_are_stable_as_fuel_grows():
    add = bundled_program("add")
    value = parse_value("(S (S (S Z)), S Z)")
    results = [run(add, "add", "(S (S (S Z)), S Z)", fuel=n) for n in range(10)]
    defined = [r for r in results if r not in (UNDEFINED, STUCK)]
    assert defined and all(r == defined[0] for r in defined)
    assert results[:4] == [UNDEFINED] * 4  # needs depth 4 for first argument 3
