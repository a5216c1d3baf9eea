import pytest

from revcat.errors import ParseError
from revcat.revlang.parser import parse_callref_text, parse_program, parse_value
from revcat.revlang.syntax import (
    Atom,
    CallRef,
    Clause,
    Cons,
    LetStep,
    Nil,
    Pair,
    S,
    Var,
    Z,
    show_callref,
    show_program,
    show_term,
)

from bundled import BUNDLED, bundled_program


def test_swap_parses_to_one_clause():
    program = parse_program("fun swap (a, b) = (b, a)")
    assert list(program.defs) == ["swap"]
    fdef = program.defs["swap"]
    assert fdef.params == ()
    assert fdef.clauses == (
        Clause(Pair(Var("a"), Var("b")), (), Pair(Var("b"), Var("a")), 1),
    )


def test_add_parses_to_hand_built_tree():
    program = bundled_program("add")
    fdef = program.defs["add"]
    assert len(fdef.clauses) == 2
    base, step = fdef.clauses
    assert base.lhs == Pair(Z(), Var("y"))
    assert base.lets == ()
    assert step.lhs == Pair(S(Var("x")), Var("y"))
    assert step.lets == (
        LetStep(
            Pair(Var("x2"), Var("y2")),
            CallRef("add"),
            Pair(Var("x"), Var("y")),
        ),
    )
    assert step.out == Pair(S(Var("x2")), S(Var("y2")))


def test_map_parses_with_static_parameter():
    program = bundled_program("map")
    fdef = program.defs["map"]
    assert fdef.params == ("g",)
    cons_clause = fdef.clauses[1]
    assert cons_clause.lhs == Cons(Var("x"), Var("xs"))
    assert cons_clause.lets[0].callee == CallRef("g")
    assert cons_clause.lets[1].callee == CallRef("map", (CallRef("g"),))
    assert cons_clause.out == Cons(Var("y"), Var("ys"))


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_program("fun f (x = x")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_program("fun f x = let y = g x")  # missing 'in'
    with pytest.raises(ParseError):
        parse_program("fun f x = Quux x")
    with pytest.raises(ParseError):
        parse_value("S")


def test_comments_and_atoms():
    program = parse_program(
        """
        atom red green
        -- a comment line
        fun paint 'red = 'green  -- trailing comment
        """
    )
    assert program.atoms == ("red", "green")
    clause = program.defs["paint"].clauses[0]
    assert clause.lhs == Atom("red") and clause.out == Atom("green")


def test_value_literals():
    assert parse_value("Z") == Z()
    assert parse_value("S Z") == S(Z())
    assert parse_value("Cons Z Nil") == Cons(Z(), Nil())
    assert parse_value("(S Z, S (S Z))") == Pair(S(Z()), S(S(Z())))
    assert parse_value("'blue") == Atom("blue")
    with pytest.raises(ParseError):
        parse_value("S x")  # variables are not values


def test_callref_text_parsing_and_printing():
    ref = parse_callref_text("map<inc~>~")
    assert ref == CallRef("map", (CallRef("inc", (), True),), True)
    assert show_callref(ref) == "map<inc~>~"
    nested = parse_callref_text("map<map<g>>")
    assert nested.args[0].args == (CallRef("g"),)


@pytest.mark.parametrize("name", ["swap", "add", "map"])
def test_pretty_print_parse_roundtrip(name):
    program = bundled_program(name)
    reparsed = parse_program(show_program(program))
    assert reparsed.defs == program.defs
    assert reparsed.atoms == program.atoms


def test_show_term_parenthesizes_arguments():
    value = Cons(S(Z()), Cons(Z(), Nil()))
    assert show_term(value) == "Cons (S Z) (Cons Z Nil)"
    assert parse_value(show_term(value)) == value


def test_clauses_merge_across_lines_and_conflicting_params_rejected():
    program = parse_program(BUNDLED["add"])
    assert len(program.defs["add"].clauses) == 2
    with pytest.raises(ParseError):
        parse_program("fun f<g> Z = Z\nfun f (S x) = x")
