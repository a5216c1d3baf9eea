"""Interned terms: one object per value, compared by identity, and every
walk over a value on an explicit stack, so values of any depth work."""
import sys
import threading
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from revcat.errors import ParseError
from revcat.revlang import (
    Atom,
    CallRef,
    Clause,
    Cons,
    FuncDef,
    LetStep,
    Nil,
    Pair,
    Program,
    S,
    Term,
    Var,
    Z,
    invert_program,
    parse_callref_text,
    parse_program,
    parse_value,
    random_value,
    roundtrip_check,
    show_callref,
    show_program,
    show_term,
    term_vars,
    unifiable,
    validate_program,
)
from revcat.revlang import syntax
from revcat.revlang.syntax import instantiate
from revcat.revlang.parser import KEYWORDS, MAX_NESTING

from bundled import bundled_program
from checkers import evaluate
from oracles import reference_repr, reference_show, term_size

TERM_CLASSES = [Z, S, Nil, Cons, Pair, Atom, Var]


def test_equal_terms_are_one_object():
    assert S(Z()) is S(Z())
    assert Cons(Atom("a"), Nil()) is parse_value("Cons 'a Nil")
    assert Pair(Var("x"), Z()) is not Pair(Var("y"), Z())
    assert Atom("x") is not Var("x")


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda cls: cls.__name__)
def test_no_term_class_defines_its_own_equality_or_hash(cls):
    for klass in cls.__mro__[:-1]:
        assert "__eq__" not in vars(klass) and "__hash__" not in vars(klass)
    assert issubclass(cls, Term) and "__dict__" not in dir(cls)


def test_terms_are_frozen_and_take_exactly_their_fields():
    with pytest.raises(AttributeError):
        S(Z()).arg = Nil()
    with pytest.raises(TypeError):
        S()
    with pytest.raises(TypeError):
        Pair(Z())


def test_threads_that_race_to_build_a_term_share_one_object():
    names = [f"race{i}" for i in range(2000)]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append([S(Cons(Atom(n), Nil())) for n in names]))
            for _ in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 16
    assert all(a is b for built in results[1:] for a, b in zip(built, results[0]))


def test_alpha_equivalence_is_gone():
    import revcat.revlang as revlang

    for name in ("alpha_equivalent", "_canonical_clause"):
        assert not hasattr(syntax, name)
        assert name not in revlang.__all__


# -- bounded random values and patterns ----------------------------------------

NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(lambda n: n not in KEYWORDS)


def _terms(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.builds(S, inner) | st.builds(Cons, inner, inner) | st.builds(Pair, inner, inner),
        max_leaves=20,
    )


VALUES = _terms(st.sampled_from([Z(), Nil()]) | st.builds(Atom, NAMES))
PATTERNS = _terms(st.sampled_from([Z(), Nil()]) | st.builds(Atom, NAMES) | st.builds(Var, NAMES))
SMALL_PATTERNS = _terms(st.sampled_from([Z(), Nil(), Atom("a"), Var("x"), Var("y")]))


@given(VALUES)
def test_a_printed_value_parses_back_to_itself(value):
    assert parse_value(show_term(value)) is value


@given(PATTERNS, st.booleans())
def test_the_stack_printer_agrees_with_the_recursive_one(term, atomic):
    assert repr(term) == reference_repr(term)
    assert show_term(term, atomic=atomic) == reference_show(term, atomic=atomic)


@given(SMALL_PATTERNS, SMALL_PATTERNS, VALUES)
def test_unification_terminates_and_agrees_with_matching(p, q, value):
    assert unifiable(p, q) == unifiable(q, p)
    assert unifiable(p, p)
    ground = parse_value(show_term(value))
    assert unifiable(p, ground) == (syntax.match(p, ground) is not None)


# -- bounded random valid programs ----------------------------------------------

DEF_NAMES = ["f", "walk", "go_on", "h2"]


@st.composite
def programs(draw):
    """A valid program.  Clause ``i`` of each definition carries the numeral
    ``i`` on both sides, so no two clauses overlap either way, and every
    variable is bound once and used once."""
    names = draw(st.lists(st.sampled_from(DEF_NAMES), min_size=1, max_size=3, unique=True))
    params = {name: () if name == names[0] else draw(st.sampled_from([(), ("k",)])) for name in names}
    fresh = (f"v{i}" for i in count())

    def term(variables, depth=2):
        """A term with each of ``variables`` once, in order, in a random shape."""
        if not variables:
            return draw(st.sampled_from([Z(), Nil(), Atom("a")]))
        if len(variables) == 1 and (depth == 0 or draw(st.booleans())):
            return Var(variables[0])
        cls = Pair if depth == 0 else draw(st.sampled_from([S, Cons, Pair]))
        if cls is S:
            return S(term(variables, depth - 1))
        cut = draw(st.integers(0, len(variables))) if depth else len(variables) // 2
        return cls(term(variables[:cut], max(depth - 1, 0)), term(variables[cut:], max(depth - 1, 0)))

    def ref(scope, nested=False):
        name = draw(st.sampled_from([n for n in [*names, *scope] if not (nested and params.get(n))]))
        args = tuple(ref(scope, nested=True) for _ in params.get(name, ()))
        return CallRef(name, args, draw(st.booleans()))

    def numeral(i):
        return Z() if i == 0 else S(numeral(i - 1))

    program = Program(atoms=("a",))
    for name in names:
        clauses = []
        for i in range(draw(st.integers(1, 3))):
            available = [next(fresh) for _ in range(draw(st.integers(0, 2)))]
            lhs = Pair(numeral(i), term(available))
            lets = []
            for _ in range(draw(st.integers(0, 2))):
                used = draw(st.lists(st.sampled_from(available), unique=True)) if available else []
                bound = [next(fresh) for _ in range(draw(st.integers(0, 2)))]
                lets.append(LetStep(term(bound), ref(params[name]), term(used)))
                available = [v for v in available if v not in used] + bound
            clauses.append(Clause(lhs, tuple(lets), Pair(numeral(i), term(available))))
        program.defs[name] = FuncDef(name, params[name], tuple(clauses))
    return program


@settings(max_examples=150, deadline=None)
@given(programs())
def test_random_valid_programs_invert_print_and_run(program):
    report = validate_program(program)
    assert report.ok, str(report)
    inverted = invert_program(program)
    assert validate_program(inverted).ok
    assert invert_program(inverted) == program
    assert parse_program(show_program(program)) == program
    assert parse_program(show_program(inverted)) == inverted
    entry = program.defs[next(iter(program.defs))]

    def inputs(rng):
        """A value that some clause of ``entry`` matches."""
        lhs = rng.choice(entry.clauses).lhs
        return instantiate(lhs, {v: random_value(rng, 4, ("a",)) for v in term_vars(lhs)})

    assert roundtrip_check(program, entry.name, {}, trials=5, fuel=8, seed=0, value_gen=inputs).passed


# -- values of depth 10^5 under the default recursion limit ----------------------

DEPTH = 100_000


@pytest.fixture(scope="module")
def deep():
    """The text of a numeral of depth ``DEPTH`` and the numeral."""
    assert sys.getrecursionlimit() <= 1000
    text = "S (" * (DEPTH - 1) + "S Z" + ")" * (DEPTH - 1)
    return text, parse_value(text)


def _count_s(t):
    n = 0
    while type(t) is S:
        t, n = t.arg, n + 1
    assert type(t) is Z
    return n


def test_a_deep_value_parses_prints_compares_and_hashes(deep):
    text, value = deep
    assert _count_s(value) == DEPTH
    assert show_term(value) == text
    assert show_term(value, atomic=True) == f"({text})"
    assert repr(value) == "S(" * DEPTH + "Z" + ")" * DEPTH
    built = Z()
    for _ in range(DEPTH):
        built = S(built)
    assert built == value and built is value
    assert hash(built) == hash(value) and {built: 1}[value] == 1
    assert term_size(value) == DEPTH + 1 and syntax.is_value(value)


def test_a_deep_value_round_trips(deep):
    _, value = deep
    report = roundtrip_check(
        bundled_program("add"), "add", {}, trials=1, fuel=DEPTH + 1, seed=3,
        value_gen=lambda rng: Pair(value, S(Z())),
    )
    assert report.passed and report.by_law == {"roundtrip": 1, "fuel-adjoint": 1}


# -- program text and call references are nested at most MAX_NESTING deep --------


def _nest(levels, inner="x"):
    """``S (S (... inner))`` with ``levels`` parentheses."""
    return "S (" * levels + inner + ")" * levels


def test_a_program_nested_at_the_bound_validates_inverts_and_runs():
    source = f"fun f ({_nest(MAX_NESTING - 1)}) = {_nest(MAX_NESTING)}\n"
    program = parse_program(source)
    assert validate_program(program).ok
    inverted = invert_program(program)
    assert validate_program(inverted).ok and invert_program(inverted) == program
    assert parse_program(show_program(inverted)) == inverted
    value = parse_value(_nest(MAX_NESTING - 1, "S Z"))
    assert unifiable(program.defs["f"].clauses[0].lhs, value)
    image = evaluate(program, "f", {}, value, 5)
    assert _count_s(image) == MAX_NESTING + 1
    assert evaluate(inverted, "f_inv", {}, image, 5) is value


@pytest.mark.parametrize(
    "source",
    [
        f"fun f ({_nest(MAX_NESTING)}) = x",
        f"fun f x = {_nest(MAX_NESTING + 1)}",
        f"fun f x = let y = g ({_nest(MAX_NESTING)}) in y",
        "fun f x = " + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "fun f x = let y = " + "m<" * (MAX_NESTING + 1) + "g" + ">" * (MAX_NESTING + 1) + " x in y",
        f"fun f ({_nest(3000)}) = x",
    ],
    ids=["lhs", "out", "let-arg", "parens", "callee", "3000"],
)
def test_program_text_nested_past_the_bound_is_refused(source):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert f"nested deeper than {MAX_NESTING}" in str(err.value)


def test_call_references_are_nested_at_most_to_the_bound():
    at_bound = "map<" * MAX_NESTING + "inc" + ">" * MAX_NESTING
    assert show_callref(parse_callref_text(at_bound)) == at_bound
    for levels in (MAX_NESTING + 1, 2000):
        with pytest.raises(ParseError) as err:
            parse_callref_text("map<" * levels + "inc" + ">" * levels)
        assert f"nested deeper than {MAX_NESTING}" in str(err.value)


def test_value_literals_have_no_nesting_bound():
    text = "(" * 5000 + "Z" + ")" * 5000
    assert parse_value(text) is Z()
    assert parse_value(_nest(5000, "Z")) is parse_value(show_term(parse_value(_nest(5000, "Z"))))
