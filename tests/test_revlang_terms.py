"""The printed and parsed forms of every term class, pinned as literal text."""
import pytest

from revcat.errors import ParseError
from revcat.revlang.denote import enumerate_values
from revcat.revlang.parser import parse_program, parse_value
from revcat.revlang.syntax import Atom, Cons, Nil, Pair, S, Var, Z, children, rebuild, show_term

# (term, repr, show_term, show_term with atomic=True), one per term class.
FORMS = [
    (Z(), "Z", "Z", "Z"),
    (S(Z()), "S(Z)", "S Z", "(S Z)"),
    (Nil(), "Nil", "Nil", "Nil"),
    (Cons(Z(), Nil()), "Cons(Z, Nil)", "Cons Z Nil", "(Cons Z Nil)"),
    (Pair(Z(), Nil()), "Pair(Z, Nil)", "(Z, Nil)", "(Z, Nil)"),
    (Atom("red"), "Atom(red)", "'red", "'red"),
    (Var("x"), "Var(x)", "x", "x"),
]


@pytest.mark.parametrize("term, shown, plain, atomic", FORMS, ids=[f[1] for f in FORMS])
def test_each_term_class_prints_as_before(term, shown, plain, atomic):
    assert repr(term) == shown
    assert show_term(term) == plain
    assert show_term(term, atomic=True) == atomic


def test_nested_terms_print_their_children_in_order():
    term = Pair(Cons(S(Atom("a")), Nil()), S(S(Var("y"))))
    assert repr(term) == "Pair(Cons(S(Atom(a)), Nil), S(S(Var(y))))"
    assert show_term(term) == "(Cons (S 'a) Nil, S (S y))"


def test_every_small_value_survives_printing_and_rebuilding():
    values = enumerate_values(5, atoms=("a",))
    assert len(values) == 411
    for value in values:
        assert parse_value(show_term(value)) == value
        assert rebuild(value, children(value)) == value


def test_value_enumeration_order():
    first = enumerate_values(4, atoms=("b", "a"))[:30]
    assert ", ".join(show_term(t, atomic=True) for t in first) == (
        "Z, Nil, 'a, 'b, (S Z), (S Nil), (S 'a), (S 'b), (S (S Z)), (S (S Nil)), "
        "(S (S 'a)), (S (S 'b)), (Cons Z Z), (Z, Z), (Cons Z Nil), (Z, Nil), "
        "(Cons Z 'a), (Z, 'a), (Cons Z 'b), (Z, 'b), (Cons Nil Z), (Nil, Z), "
        "(Cons Nil Nil), (Nil, Nil), (Cons Nil 'a), (Nil, 'a), (Cons Nil 'b), "
        "(Nil, 'b), (Cons 'a Z), ('a, Z)"
    )


@pytest.mark.parametrize(
    "source, message",
    [
        ("S", "expected a term, found '' at 1:2"),
        ("S S Z", "constructor S takes arguments; parenthesize it at 1:3"),
        ("Cons Z Pair", "constructor Pair takes arguments; parenthesize it at 1:8"),
        ("Quux", "unknown constructor 'Quux' at 1:1"),
        ("(Z, Nil", "expected ')', found '' at 1:8"),
        ("fun f S = Z", "constructor S takes arguments; parenthesize it at 1:7"),
        ("fun f x = Cons Quux x", "unknown constructor 'Quux' at 1:16"),
        ("fun f (Pair) = x", "expected a term, found ')' at 1:12"),
        # The scanner: a comment takes no columns, a tab or CR takes one.
        ("S -- a comment", "expected a term, found '' at 1:3"),
        ("S\t\r(", "expected a term, found '' at 1:5"),
        ("fun f x = x\n  3x", "unexpected character '3' at 2:3"),
        ("fun f x = \u00bd", "unexpected character '\u00bd' at 1:11"),
        ("fun f x = ' x", "empty atom literal at 1:11"),
        ("fun f x = x -\n", "unexpected character '-' at 1:13"),
    ],
)
def test_parse_errors_keep_their_text_and_position(source, message):
    with pytest.raises(ParseError) as err:
        parse_program(source) if source.startswith("fun") else parse_value(source)
    assert str(err.value) == message


def test_names_take_any_letter_and_lines_may_end_in_cr_lf():
    program = parse_program("fun \u0192_1 x\t=\r\n  Cons '\u00e9 x -- id\n")
    (fdef,) = program.defs.values()
    assert fdef.name == "\u0192_1"
    assert show_term(fdef.clauses[0].out) == "Cons '\u00e9 x"
