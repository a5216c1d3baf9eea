"""Nested static arguments: parametrized functions passed as parameters."""
from revcat.cat import FinObject, enumerate_homs, enumerate_rel
from revcat.errors import TooLarge
from revcat.order import FixMode, FixPolicy, kleene_fix
from revcat.cat import StochMorphism, hom_domain
from revcat.revlang import (
    bundled_program,
    dagger_ref,
    eval_program,
    eval_ref,
    invert_binding,
    invert_program,
    parse_callref_text,
    parse_value,
    show_callref,
)

import pytest


def test_map_of_map_roundtrips_on_nested_lists():
    program = bundled_program("map")
    ref = parse_callref_text("map<map<inc>>")
    value = parse_value("Cons (Cons Z Nil) (Cons (Cons (S Z) Nil) Nil)")
    image = eval_ref(program, ref, value, 1000)
    assert image == parse_value("Cons (Cons (S Z) Nil) (Cons (Cons (S (S Z)) Nil) Nil)")
    assert eval_ref(program, dagger_ref(ref), image, 1000) == value


def test_nested_binding_inversion_names():
    program = bundled_program("map")
    binding = invert_binding(parse_callref_text("map<inc>"), program)
    assert show_callref(binding) == "map_inv<inc_inv>"
    inverse = invert_program(program)
    value = parse_value("Cons (Cons Z Nil) Nil")
    image = eval_ref(program, parse_callref_text("map<map<inc>>"), value, 1000)
    assert eval_program(inverse, "map_inv", {"g": binding}, image, 1000) == value


def test_enumeration_cap_raises_too_large():
    big = FinObject(4)
    with pytest.raises(TooLarge):
        enumerate_homs("rel", big, big)
    assert len(enumerate_rel(big, big, cap=16)) == 2 ** 16


def test_metric_kleene_result_carries_residual():
    obj = FinObject(1)
    domain = hom_domain("dstoch", obj, obj)

    def affine(a):
        return StochMorphism(obj, obj, [[0.25 + 0.5 * a.rows[0][0]]])

    result = kleene_fix(affine, domain, FixPolicy(mode=FixMode.METRIC))
    assert result.converged
    assert 0 <= result.residual < 1e-9
