"""Call references built at run time.  Polymorphic recursion binds a static
argument one ``map<...>`` deeper per call, so a run builds references as
deep as its input.  References are interned as terms are, each closed
reference is compiled once, and ``dagger_ref`` walks on an explicit stack,
so such a run builds references in number linear in its depth, and no walk
over one recurses once per level."""
import pytest

from revcat.cli import main
from revcat.revlang import (
    CallRef,
    Evaluator,
    closed_ref,
    dagger_ref,
    invert_binding,
    parse_callref_text,
    parse_program,
    parse_value,
    show_callref,
    show_term,
)
from revcat.revlang.validate import check_ref

from bundled import GROW, GROW_INVERTED, GROW_INVERTED_AT_BASE

# Shape -> (program, whether ``f`` takes ``(S^n Z, Nil)`` rather than ``S^n Z``).
SHAPES = {
    "inverted": (GROW_INVERTED, False),
    "grown": (GROW, True),
    "inverted-at-base": (GROW_INVERTED_AT_BASE, True),
}


def argument(shape, n):
    numeral = "S (" * n + "Z" + ")" * n
    return f"({numeral}, Nil)" if SHAPES[shape][1] else numeral


@pytest.mark.parametrize("shape", SHAPES)
def test_a_reference_grown_2000_deep_runs(shape, tmp_path, capsys):
    path = tmp_path / "grow.rvl"
    path.write_text(SHAPES[shape][0])
    arg = argument(shape, 2000)
    assert main(["run", str(path), "f<inc>", "--arg", arg, "--fuel", "2100"]) == 0
    assert capsys.readouterr().out.strip() == show_term(parse_value(arg))


def interned(cls):
    """How many objects ``cls`` has interned: the size of the table its
    constructor keeps."""
    new = cls.__new__
    return len(new.__closure__[new.__code__.co_freevars.index("table")].cell_contents)


def built(shape, n, monkeypatch):
    """``(constructor calls, objects interned)`` for ``CallRef`` while
    ``f<inc>`` runs at depth ``n``."""
    # Renamed per depth, so that no run meets a reference an earlier one built.
    program = parse_program(SHAPES[shape][0].replace("map", f"map{n}"))
    ref = closed_ref(program, parse_callref_text("f<inc>"))
    value = parse_value(argument(shape, n))
    calls = 0
    construct = CallRef.__new__

    def counted(cls, *values):
        nonlocal calls
        calls += 1
        return construct(cls, *values)

    before = interned(CallRef)
    with monkeypatch.context() as patch:
        patch.setattr(CallRef, "__new__", staticmethod(counted))
        assert Evaluator(program).call(ref, value, n + 10) is value
    return calls, interned(CallRef) - before


@pytest.mark.parametrize("shape", SHAPES)
def test_references_built_grow_linearly_with_depth(shape, monkeypatch):
    calls_500, new_500 = built(shape, 500, monkeypatch)
    calls_1000, new_1000 = built(shape, 1000, monkeypatch)
    assert new_500 >= 500
    assert new_1000 <= 2.2 * new_500
    assert calls_1000 <= 2.2 * calls_500


def test_references_are_interned_with_their_defaults():
    assert CallRef("inc") is CallRef("inc", (), False)
    assert CallRef("map", (CallRef("inc"),)) is parse_callref_text("map<inc>")
    assert CallRef("inc") is not CallRef("inc", (), True)
    for klass in CallRef.__mro__[:-1]:
        assert "__eq__" not in vars(klass) and "__hash__" not in vars(klass)
    with pytest.raises(TypeError):
        CallRef()
    with pytest.raises(TypeError):
        CallRef("inc", (), False, None)


def test_an_inverse_reference_inverts_back_to_the_same_object():
    ref = parse_callref_text("map<map<inc>~, g>~")
    assert dagger_ref(ref) is parse_callref_text("map<map<inc~>, g~>")
    assert dagger_ref(dagger_ref(ref)) is ref
    assert dagger_ref(ref, ("g",)) is parse_callref_text("map<map<inc~>, g>")


def test_a_deep_reference_inverts_on_an_explicit_stack():
    ref = CallRef("g")
    for _ in range(10_000):
        ref = CallRef("map", (ref,), True)
    # With ``params`` nothing is remembered, so the whole reference is walked.
    inverse = dagger_ref(ref, ("g",))
    for _ in range(10_000):
        assert inverse.name == "map" and not inverse.inverted
        (inverse,) = inverse.args
    assert inverse is CallRef("g")
    assert dagger_ref(dagger_ref(ref)) is ref


def test_every_walk_over_a_deep_reference_runs_on_a_stack():
    depth = 10_000
    ref = CallRef("inc")
    for _ in range(depth):
        ref = CallRef("map", (ref,))
    text = "map<" * depth + "inc" + ">" * depth
    program = parse_program(GROW_INVERTED_AT_BASE)
    assert closed_ref(program, ref) is ref
    assert show_callref(ref) == text and repr(ref) == f"CallRef({text!r})"
    renamed = text.replace("map", "map_inv").replace("inc", "inc_inv")
    assert show_callref(invert_binding(ref, program)) == renamed
    # ``h<g>`` calls ``g~``: binding it inverts the whole reference.
    nil = parse_value("Nil")
    h = closed_ref(program, CallRef("h", (ref,)))
    assert Evaluator(program).call(h, nil, 10) is nil


def test_a_reference_is_checked_in_textual_order():
    program = parse_program(GROW_INVERTED_AT_BASE)
    errors = []
    check_ref(parse_callref_text("map<nope, map<inc, zap>, p<nope>, map>"), program, ("p",),
              lambda e: errors.append(str(e)))
    assert errors == [
        "call to 'map' passes 4 static argument(s), expected 1",
        "unknown function 'nope'",
        "call to 'map' passes 2 static argument(s), expected 1",
        "unknown function 'zap'",
        "parameter 'p' cannot take static arguments",
        "call to 'map' passes 0 static argument(s), expected 1",
    ]
