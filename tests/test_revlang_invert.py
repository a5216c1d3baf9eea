import importlib
import json
from pathlib import Path
from random import Random

import pytest

from revcat.cli import main
from revcat.errors import InvalidArgument
from revcat.revlang.denote import (
    VALUE_BOUND,
    denote,
    enumerate_values,
    random_nat_list,
    random_peano_pair,
    random_value,
    roundtrip_check,
)
from revcat.revlang.interp import Evaluator, closed_ref
from revcat.revlang.invert import invert_binding, invert_program, toggle_suffix
from revcat.revlang.parser import parse_callref_text, parse_program, parse_value
from revcat.revlang.syntax import CallRef, Term, dagger_ref, show_callref, show_program
from revcat.revlang.validate import ValidationFailed, validate_program

from bundled import BUNDLED, bundled_program
from checkers import evaluate


def test_inverted_swap_is_the_flipped_clause():
    inv = invert_program(bundled_program("swap"))
    assert show_program(inv) == "fun swap_inv (b, a) = (a, b)\n"


PROGRAMS = Path(__file__).resolve().parents[1] / "bench" / "programs"
INVERTED_ADD = (
    "fun add_inv (Z, y) = (Z, y)\n"
    "fun add_inv (S x2, S y2) = let (x, y) = add_inv (x2, y2) in (S x, y)\n"
)
INVERTED_MAP = (
    "fun inc_inv (S x) = x\n"
    "fun map_inv<g> Nil = Nil\n"
    "fun map_inv<g> (Cons y ys) = let xs = map_inv<g> ys in let x = g y in Cons x xs\n"
)
# Marked calls, marked parameters, nested static arguments, and a definition
# whose name already carries the suffix.
SHIFT = """\
fun inc x = S x
fun map<g> Nil = Nil
fun map<g> (Cons x xs) = let y = g x in let ys = map<g> xs in Cons y ys
fun shift<h> xs = let ys = map<inc~> xs in let zs = map<h> ys in let w = h~ zs in S w
fun shift_inv<h> (S a) = let b = map<map<h>~> a in let c = inc_inv b in c
fun inc_inv (S x) = x
"""
INVERTED_SHIFT = (
    "fun inc_inv (S x) = x\n"
    "fun map_inv<g> Nil = Nil\n"
    "fun map_inv<g> (Cons y ys) = let xs = map_inv<g> ys in let x = g y in Cons x xs\n"
    "fun shift_inv<h> (S w) = let zs = h~ w in let ys = map_inv<h> zs in "
    "let xs = map_inv<inc_inv~> ys in xs\n"
    "fun shift<h> c = let b = inc c in let a = map_inv<map_inv<h>~> b in S a\n"
    "fun inc x = S x\n"
)


@pytest.mark.parametrize(
    "source, expected",
    [
        (BUNDLED["add"], INVERTED_ADD),
        (BUNDLED["map"], INVERTED_MAP),
        ((PROGRAMS / "add.rvl").read_text(encoding="utf-8"), INVERTED_ADD),
        ((PROGRAMS / "map.rvl").read_text(encoding="utf-8"), INVERTED_MAP),
        (SHIFT, INVERTED_SHIFT),
    ],
    ids=["add", "map", "add.rvl", "map.rvl", "shift"],
)
def test_inverted_programs_print_as_pinned(source, expected):
    program = parse_program(source)
    assert validate_program(program) == []
    assert show_program(invert_program(program)) == expected


def test_inverted_bindings_name_the_renamed_definitions():
    program = parse_program(SHIFT)
    assert show_callref(invert_binding(parse_callref_text("map<inc~>~"), program)) == \
        "map_inv<inc_inv~>~"
    assert show_callref(invert_binding(parse_callref_text("shift_inv<map<inc>>"), program)) == \
        "shift<map_inv<inc_inv>>"


def test_inverted_program_validates_and_runs_backwards():
    add = bundled_program("add")
    inv = invert_program(add)
    assert validate_program(inv) == []
    assert evaluate(inv, "add_inv", {}, parse_value("(S Z, S (S Z))"), 10) == \
        parse_value("(S Z, S Z)")


def test_double_inversion_is_alpha_equivalent_to_the_source():
    for name in ("swap", "add", "map"):
        program = bundled_program(name)
        assert invert_program(invert_program(program)) == program


def test_suffix_toggling():
    assert toggle_suffix("add") == "add_inv"
    assert toggle_suffix("add_inv") == "add"
    assert toggle_suffix("f", "_rev") == "f_rev"


@pytest.mark.parametrize("suffix", ["_inv", "_rev", "2", "Back", "_"])
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_an_inverted_program_prints_as_text_that_parses_back(name, suffix):
    inverted = invert_program(bundled_program(name), suffix)
    assert parse_program(show_program(inverted)) == inverted


@pytest.mark.parametrize("suffix", ["", "~x", "_inv ", "-", "'"])
def test_a_suffix_that_cannot_be_part_of_a_name_is_refused(suffix):
    with pytest.raises(InvalidArgument):
        invert_program(bundled_program("add"), suffix)


@pytest.mark.parametrize(
    "source, named",
    [
        ("fun in_inv (S x) = x", "'in'"),
        ("fun f x = S x\nfun f_inv_inv (S x) = x", "'f_inv_inv'"),
        ("fun x_inv_inv y = y", "'x_inv_inv'"),
    ],
    ids=["keyword", "two-land-on-one-name", "suffix-twice"],
)
def test_a_renaming_that_does_not_undo_itself_is_refused(source, named):
    program = parse_program(source)
    assert validate_program(program) == []
    with pytest.raises(InvalidArgument) as err:
        invert_program(program)
    assert named in str(err.value)


def test_roundtrip_add_on_seeded_peano_pairs():
    report = roundtrip_check(
        bundled_program("add"), "add", {},
        trials=100, fuel=10_000, seed=1,
        value_gen=lambda rng: random_peano_pair(rng, limit=30),
    )
    assert report.passed
    assert report.by_law["roundtrip"] == 100
    assert report.by_law["fuel-adjoint"] == 100


def test_roundtrip_map_inc_on_short_lists():
    report = roundtrip_check(
        bundled_program("map"), "map", {"g": CallRef("inc")},
        trials=100, fuel=10_000, seed=2,
        value_gen=lambda rng: random_nat_list(rng, max_len=5),
    )
    assert report.passed
    assert report.by_law["roundtrip"] == 100


def test_roundtrip_runs_backwards_the_inverse_of_the_checked_reference(monkeypatch):
    module = importlib.import_module("revcat.revlang.denote")
    seen = []

    def spy(function):
        def wrapper(*args):
            result = function(*args)
            seen.append((function.__name__, show_callref(result)))
            return result

        return wrapper

    for name in ("closed_ref", "dagger_ref"):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    roundtrip_check(bundled_program("map"), "map", {"g": CallRef("inc")}, trials=3, fuel=50, seed=1)
    assert seen == [("closed_ref", "map<inc>"), ("dagger_ref", "map<inc~>~")]


# Programs whose renaming ``invert`` refuses, though each definition runs
# backwards: ``roundtrip`` runs ``f~`` and needs no renaming.
UNRENAMEABLE = [
    ("fun in_inv x = x\nfun swap (a, b) = (b, a)\n", "swap"),
    ("fun f_inv_inv x = x\n", "f_inv_inv"),
]


@pytest.mark.parametrize("source, fname", UNRENAMEABLE, ids=["keyword", "suffix-twice"])
def test_roundtrip_checks_a_program_that_invert_cannot_rename(tmp_path, capsys, source, fname):
    path = tmp_path / "p.rvl"
    path.write_text(source, encoding="utf-8")
    with pytest.raises(InvalidArgument):
        invert_program(parse_program(source))
    code = main(["roundtrip", str(path), fname, "--seed", "1", "--trials", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["report"]["checked"] > 0


# roundtrip's own draws for each bundled reference, as --values picks them.
DRAWS = [
    ("swap", "swap", {}, lambda rng: random_value(rng, VALUE_BOUND)),
    ("add", "add", {}, random_peano_pair),
    ("map", "map", {"g": CallRef("inc")}, random_nat_list),
]


@pytest.mark.parametrize("name, fname, bindings, draw", DRAWS, ids=[d[0] for d in DRAWS])
def test_the_renamed_program_runs_each_inverse_as_dagger_ref_does(name, fname, bindings, draw):
    # The renaming ``revcat invert`` prints against the inverse ``run`` and
    # ``roundtrip`` evaluate, on forward images of seeded draws and on the
    # draws themselves.
    program = bundled_program(name)
    ref = closed_ref(program, parse_callref_text(fname), bindings)
    renamed, renamed_ref = Evaluator(invert_program(program)), invert_binding(ref, program)
    evaluator, inverse = Evaluator(program), dagger_ref(ref)
    rng = Random(1)
    compared = 0
    for _ in range(200):
        v = draw(rng)
        for w in (v, evaluator.call(ref, v, 50)):
            if isinstance(w, Term):
                fuel = rng.randrange(1, 51)
                expected = evaluator.call(inverse, w, fuel)
                assert renamed.call(renamed_ref, w, fuel) == expected, (w, fuel)
                compared += expected == v
    assert compared > 0


def test_a_half_inverted_parametrized_reference_is_not_the_dagger():
    # map<inc>~ inverts map but runs inc forwards: it is not the inverse
    # of map<inc>, so test_denotation_of_the_inverse_is_the_dagger can fail.
    program = bundled_program("map")
    forward = denote(program, "map<inc>", {}, universe_bound=6, fuel=32)
    assert denote(program, "map<inc>~", {}, universe_bound=6, fuel=32) != forward.dagger()


def test_roundtrip_rejects_invalid_programs_before_running():
    bad = parse_program("fun f Z = Z\nfun f (S x) = let y = f x in Z")
    with pytest.raises(ValidationFailed):
        roundtrip_check(bad, "f", {}, trials=5, fuel=10, seed=0)


def test_denote_swap_restricted_to_pairs_over_small_nats():
    swap = bundled_program("swap")
    graph = denote(swap, "swap", {}, universe_bound=5, fuel=8)
    universe = enumerate_values(5)
    index = {v: i for i, v in enumerate(universe)}
    zz = index[parse_value("(Z, Z)")]
    zs = index[parse_value("(Z, S Z)")]
    sz = index[parse_value("(S Z, Z)")]
    ss = index[parse_value("(S Z, S Z)")]
    mapping = graph.mapping
    # the four pairs over {Z, S Z} form a transposition block
    assert mapping[zz] == zz and mapping[ss] == ss
    assert mapping[zs] == sz and mapping[sz] == zs
    # swap is defined exactly on the pairs of the universe
    assert all(universe[i].__class__.__name__ == "Pair" for i in mapping)


def test_denote_of_function_with_no_matching_clause_is_bottom():
    program = parse_program("fun f (Z, Z) = (Z, Z)\nfun g 'x = 'x\natom x")
    # no pair fits in two nodes, so f never matches: the bottom injection
    graph = denote(program, "f", {}, universe_bound=2, fuel=4)
    assert graph.mapping == {}
    atoms_only = denote(program, "g", {}, universe_bound=3, fuel=4)
    assert len(atoms_only.mapping) == 1  # exactly the declared atom


@pytest.mark.parametrize(
    "name,fname,bindings",
    [
        ("add", "add", {}),
        ("map", "map", {"g": CallRef("inc")}),
        ("swap", "swap", {}),
    ],
)
def test_denotation_of_the_inverse_is_the_dagger(name, fname, bindings):
    program = bundled_program(name)
    forward = denote(program, fname, bindings, universe_bound=6, fuel=32)
    assert len(forward.mapping) > 0
    # The inverse as ``revcat invert`` names it, in the renamed program ...
    inverse = invert_program(program)
    inv_bindings = {k: invert_binding(r, program) for k, r in bindings.items()}
    assert denote(inverse, toggle_suffix(fname), inv_bindings, universe_bound=6, fuel=32) == forward.dagger()
    # ... and as run and roundtrip evaluate it, dagger_ref in the same
    # program: (fix Phi)+ = fix(conj Phi) for the language.
    ref = closed_ref(program, parse_callref_text(fname), bindings)
    assert denote(program, show_callref(dagger_ref(ref)), {}, universe_bound=6, fuel=32) == forward.dagger()


@pytest.mark.parametrize(
    "name,bindings,most",
    [("swap", {}, 1), ("add", {}, 6), ("map", {"g": CallRef("inc")}, 4)],
    ids=["swap", "add", "map<inc>"],
)
def test_every_kleene_stage_of_the_inverse_is_the_dagger_of_the_stage(name, bindings, most):
    # Stage n is the denotation at fuel n, on the 9,168 terms of at most
    # eight nodes.  The inverse reference denotes the dagger at every stage,
    # the stages ascend, and stage n holds exactly the points whose least
    # fuel, read from one call table filled at fuel 64, is at most n, each
    # with its image there, where the image has at most eight nodes too.
    # ``most`` is the largest least fuel of a point of the universe.
    program = bundled_program(name)
    universe = enumerate_values(8, program.atoms)
    index = {v: i for i, v in enumerate(universe)}
    ref = closed_ref(program, parse_callref_text(name), bindings)
    inverse = show_callref(dagger_ref(ref))
    evaluator = Evaluator(program)
    for v in universe:
        evaluator.call(ref, v, 64)
    _, row = evaluator._compiled[ref]
    least = {index[v]: (index.get(w), need) for v, (w, need) in row.items() if v in index and isinstance(w, Term)}
    assert {need for _, need in least.values()} == set(range(1, most + 1))
    stages = [denote(program, name, bindings, universe_bound=8, fuel=n) for n in range(1, 9)]
    for n, stage in enumerate(stages, start=1):
        assert denote(program, inverse, {}, universe_bound=8, fuel=n) == stage.dagger(), n
        assert stage.mapping == {i: j for i, (j, need) in least.items() if need <= n and j is not None}, n
    assert all(lower.leq(upper) for lower, upper in zip(stages, stages[1:]))


def test_map_inverse_binding_semantics():
    program = bundled_program("map")
    inverse = invert_program(program)
    value = parse_value("Cons (S (S Z)) (Cons Z Nil)")
    image = evaluate(program, "map", {"g": CallRef("inc")}, value, 100)
    recovered = evaluate(
        inverse, "map_inv", {"g": CallRef("inc_inv")}, image, 100
    )
    assert recovered == value
