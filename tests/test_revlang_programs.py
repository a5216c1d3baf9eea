"""Behavioral tests on a richer corpus of small reversible programs."""
from random import Random

import pytest

from revcat.revlang.denote import denote, roundtrip_check
from revcat.revlang.interp import STUCK
from revcat.revlang.invert import invert_program
from revcat.revlang.parser import parse_program, parse_value
from revcat.revlang.syntax import Atom, Cons, Nil, show_program
from revcat.revlang.validate import validate_program

from checkers import evaluate

DEC = """\
fun inc x = S x
fun dec y = let x = inc~ y in x
"""

INC2 = """\
fun inc x = S x
fun inc2 x = let y = inc x in let z = inc y in z
"""

MIRROR = """\
atom leaf
fun mirror 'leaf = 'leaf
fun mirror (Cons l r) = let l2 = mirror l in let r2 = mirror r in Cons r2 l2
"""


def program(source):
    p = parse_program(source)
    assert validate_program(p) == []
    return p


def test_source_level_inverse_calls_run_backwards():
    p = program(DEC)
    assert evaluate(p, "dec", {}, parse_value("S (S Z)"), 10) == parse_value("S Z")
    assert evaluate(p, "dec", {}, parse_value("Z"), 10) is STUCK


def test_inverting_a_program_with_marked_calls():
    p = program(DEC)
    inv = invert_program(p)
    assert validate_program(inv) == []
    # dec ran inc backwards, so dec_inv runs inc forwards via a marked
    # reference to the renamed definition
    assert "inc_inv~" in show_program(inv)
    assert evaluate(inv, "dec_inv", {}, parse_value("S Z"), 10) == parse_value("S (S Z)")


def test_sequential_composition_inverts_in_reverse_order():
    p = program(INC2)
    inv = invert_program(p)
    assert evaluate(p, "inc2", {}, parse_value("Z"), 10) == parse_value("S (S Z)")
    assert evaluate(inv, "inc2_inv", {}, parse_value("S (S Z)"), 10) == parse_value("Z")
    report = roundtrip_check(p, "inc2", {}, trials=50, fuel=50, seed=3)
    assert report.passed


def random_leaf_tree(rng: Random, depth=4):
    if depth == 0 or rng.random() < 0.4:
        return Atom("leaf")
    return Cons(random_leaf_tree(rng, depth - 1), random_leaf_tree(rng, depth - 1))


def test_mirror_is_an_involution_and_self_adjoint():
    p = program(MIRROR)
    rng = Random(31)
    for _ in range(50):
        tree = random_leaf_tree(rng)
        once = evaluate(p, "mirror", {}, tree, 100)
        twice = evaluate(p, "mirror", {}, once, 100)
        assert twice == tree

    forward = denote(p, "mirror", {}, universe_bound=6, fuel=16)
    backward = denote(invert_program(p), "mirror_inv", {}, universe_bound=6, fuel=16)
    assert backward == forward.dagger()
    assert forward == forward.dagger()  # mirror is its own inverse

    report = roundtrip_check(
        p, "mirror", {}, trials=80, fuel=100, seed=4,
        value_gen=lambda rng: random_leaf_tree(rng),
    )
    assert report.passed
    assert report.by_law["roundtrip"] == 80


def test_mirror_is_stuck_off_the_tree_domain():
    p = program(MIRROR)
    assert evaluate(p, "mirror", {}, Nil(), 10) is STUCK


@pytest.mark.parametrize("source", [DEC, INC2, MIRROR])
def test_double_inversion_recovers_each_program(source):
    p = program(source)
    assert invert_program(invert_program(p)) == p
