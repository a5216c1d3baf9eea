"""Nested static arguments: parametrized functions passed as parameters."""
from revcat.cat.dstoch import StochMorphism
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import enumerate_rel
from revcat.errors import TooLarge
from revcat.order import FixPolicy, kleene_fix
from revcat.revlang.interp import Evaluator, closed_ref
from revcat.revlang.invert import invert_binding, invert_program
from revcat.revlang.parser import parse_callref_text, parse_value
from revcat.revlang.syntax import dagger_ref, show_callref

import pytest

from bundled import bundled_program
from checkers import evaluate


def test_map_of_map_roundtrips_on_nested_lists():
    program = bundled_program("map")
    ref = closed_ref(program, parse_callref_text("map<map<inc>>"))
    value = parse_value("Cons (Cons Z Nil) (Cons (Cons (S Z) Nil) Nil)")
    image = Evaluator(program).call(ref, value, 1000)
    assert image == parse_value("Cons (Cons (S Z) Nil) (Cons (Cons (S (S Z)) Nil) Nil)")
    assert Evaluator(program).call(closed_ref(program, dagger_ref(ref)), image, 1000) == value


def test_nested_binding_inversion_names():
    program = bundled_program("map")
    binding = invert_binding(parse_callref_text("map<inc>"), program)
    assert show_callref(binding) == "map_inv<inc_inv>"
    inverse = invert_program(program)
    value = parse_value("Cons (Cons Z Nil) Nil")
    image = evaluate(program, "map<map<inc>>", {}, value, 1000)
    assert evaluate(inverse, "map_inv", {"g": binding}, image, 1000) == value


def test_enumeration_cap_raises_too_large():
    big = FinObject(4)
    with pytest.raises(TooLarge):
        HomSpace("rel", big, big).morphisms()
    # Hom(3, 3) has 9 cells, as many as the cap allows.
    assert len(enumerate_rel(FinObject(3), FinObject(3))) == 2 ** 9


def test_metric_kleene_result_carries_residual():
    obj = FinObject(1)
    domain = HomSpace("dstoch", obj, obj)

    def affine(a):
        return StochMorphism(obj, obj, [[0.25 + 0.5 * a.rows[0][0]]])

    result = kleene_fix(affine, domain, FixPolicy())
    assert 0 <= result.residual < 1e-9
