"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned in the assertions themselves.
"""
import json
import time
from random import Random

from revcat.cat.dstoch import StochMorphism
from revcat.cat.laws import LawConfig, law_suite
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cli import main as cli_main
from revcat.functionals.expr import JoinWith, PostCompose, Seq, conj
from revcat.functionals.fixpoints import (
    check_conj_preservation,
    check_fixed_point_adjoint,
    check_pfix_adjoint,
    check_pfix_identity,
    fix_functional,
    random_endo_functional,
    random_param_functional,
)
from revcat.functionals.functors import DisjointUnionWith
from revcat.functionals.naturality import check_naturality, join_family, projection_family
from revcat.functionals.trace import check_dagger_trace, trace
from revcat.order import FixPolicy, kleene_fix
from revcat.revlang.denote import denote, random_nat_list, random_peano_pair, roundtrip_check
from revcat.revlang.invert import invert_binding, invert_program, toggle_suffix
from revcat.revlang.syntax import CallRef

from bundled import bundled_program
from checkers import check_functors, fuel_monotonicity_check
from oracles import reachability_closure


def _conclude(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_dagger_and_enrichment_laws():
    started = time.perf_counter()
    wanted = {"identity-dagger", "compose-dagger", "double-dagger", "bottom-after", "bottom-before"}
    ok = True
    for category in ("rel", "pinj"):
        for suite in ("dagger", "enrichment"):
            report = law_suite(category, suite, LawConfig(sizes=(0, 1, 2)))
            ok = ok and report.passed
            wanted -= set(report.by_law)
    elapsed = time.perf_counter() - started
    ok = ok and not wanted and elapsed < 5.0
    _conclude(1, f"dagger+enrichment exhaustive, {elapsed:.2f}s", ok)


def test_criterion_2_monotone_dagger_and_order_isomorphism():
    rel_report = law_suite("rel", "order-iso", LawConfig(sizes=(2,)))
    pinj_report = law_suite("pinj", "order-iso", LawConfig(sizes=(3,)))
    mono_rel = law_suite("rel", "monotone-dagger", LawConfig(sizes=(2,)))
    mono_pinj = law_suite("pinj", "monotone-dagger", LawConfig(sizes=(3,)))
    ok = all(r.passed for r in (rel_report, pinj_report, mono_rel, mono_pinj))
    ok = ok and rel_report.by_law["order-iso"] == 256        # 16 x 16 ordered pairs
    ok = ok and pinj_report.by_law["order-iso"] == 34 * 34   # all ordered pairs at size 3
    ok = ok and rel_report.by_law["dagger-preserves-sup"] > 0
    ok = ok and rel_report.by_law["dagger-strict"] > 0
    _conclude(2, "order isomorphism exhaustive", ok)


def test_criterion_3_fixed_point_adjoints_on_random_functionals():
    ok = True
    for category, seed in (("rel", 103), ("pinj", 203)):
        rng = Random(seed)
        checked = 0
        for _ in range(100):
            x, y = FinObject(rng.randrange(1, 4)), FinObject(rng.randrange(1, 4))
            phi = random_endo_functional(HomSpace(category, x, y), rng, depth=4)
            report = check_fixed_point_adjoint(phi)
            ok = ok and report.passed
            checked += report.checked
        ok = ok and checked >= 60  # the rest were incompatible-join skips

    x3 = FinObject(3)
    space = HomSpace("rel", x3, x3)
    r = RelMorphism.from_pairs(x3, x3, [(0, 1), (1, 2)])
    closure = Seq(PostCompose(r, space), JoinWith(r))
    oracle = reachability_closure([(0, 1), (1, 2)], 3)
    forward = fix_functional(closure).value
    backward = fix_functional(conj(closure)).value
    ok = ok and set(forward.pairs) == oracle
    ok = ok and set(backward.pairs) == {(b, a) for (a, b) in oracle}
    ok = ok and backward == forward.dagger()
    _conclude(3, "fixed point adjoint, 100 random trees per category", ok)


def test_criterion_4_parametrized_fixed_point_theorems():
    rng = Random(104)
    obj = FinObject(2)
    space = HomSpace("rel", obj, obj)
    parameters = space.morphisms()
    assert len(parameters) == 16
    ok = True
    for _ in range(100):
        psi = random_param_functional(space, space, rng, depth=4)
        for checker in (check_pfix_adjoint, check_pfix_identity, check_conj_preservation):
            report = checker(psi)
            ok = ok and report.passed and report.checked == 16
    _conclude(4, "pfix adjoint + pfix identity + conjugation preservation", ok)


def test_criterion_5_naturality_of_parametrized_fixed_points():
    o1, o2 = FinObject(1), FinObject(2)
    ok = True
    plans = [
        (join_family("rel"), (o2, o1, o1, o2)),
        (join_family("rel"), (o2, o2, o2, o2)),
        (projection_family("rel"), (o2, o1, o1, o2)),
        (join_family("rel", DisjointUnionWith(o1)), (o1, o1, o1, o1)),
        (join_family("rel", DisjointUnionWith(o1)), (o2, o1, o1, o1)),
        (projection_family("rel", DisjointUnionWith(o1)), (o1, o1, o1, o1)),
    ]
    for family, (x, xp, y, yp) in plans:
        functor_report = check_functors(family, sizes=(0, 1, 2))
        report = check_naturality(family, x, xp, y, yp, fuel=10)
        ok = ok and functor_report.passed and report.passed
        for law in ("family-square", "iterate-square", "pfix-square"):
            ok = ok and report.by_law[law] > 0
    _conclude(5, "naturality squares for iterates and pfix", ok)


def test_criterion_6_dagger_trace():
    ok = True
    for shape in ((1, 1, 0), (1, 1, 1), (1, 1, 2)):
        report = check_dagger_trace("pinj", *shape)
        ok = ok and report.passed
    report = check_dagger_trace("rel", 1, 1, 1)
    ok = ok and report.passed and report.by_law["trace-dagger"] == 16

    orbit = PInjMorphism.from_map(FinObject(3), FinObject(3), {0: 1, 1: 2, 2: 0})
    traced = trace(orbit, FinObject(1), FinObject(1), FinObject(2))
    ok = ok and traced.mapping == {0: 0}
    _conclude(6, "dagger trace exhaustive + orbit witness", ok)


def test_criterion_7_stochastic_numerics():
    report = law_suite(
        "dstoch",
        "monotone-dagger",
        LawConfig(sizes=(1, 2, 3, 4), trials=1000, seed=7, tolerance=1e-9),
    )
    ok = report.passed and report.checked == 1000

    obj = FinObject(1)
    domain = HomSpace("dstoch", obj, obj)

    def affine(a):
        return StochMorphism(obj, obj, [[0.25 + 0.5 * a.rows[0][0]]])

    result = kleene_fix(affine, domain, FixPolicy(max_iterations=64, tolerance=1e-9))
    ok = ok and result.iterations <= 64
    ok = ok and abs(result.value.rows[0][0] - 0.5) < 1e-9
    _conclude(7, "transpose monotone on 1000 seeded pairs + affine fixed point", ok)


def test_criterion_8_reversible_language():
    ok = True

    swap = bundled_program("swap")
    add = bundled_program("add")
    mapped = bundled_program("map")
    inc = {"g": CallRef("inc")}

    ok = ok and roundtrip_check(swap, "swap", {}, 100, 10_000, seed=81).passed
    ok = ok and roundtrip_check(
        add, "add", {}, 100, 10_000, seed=82,
        value_gen=lambda rng: random_peano_pair(rng, limit=30),
    ).passed
    ok = ok and roundtrip_check(
        mapped, "map", inc, 100, 10_000, seed=83,
        value_gen=lambda rng: random_nat_list(rng, max_len=5),
    ).passed

    for program, fname, bindings in ((add, "add", {}), (mapped, "map", inc)):
        inverse = invert_program(program)
        inv_bindings = {k: invert_binding(r, program) for k, r in bindings.items()}
        forward = denote(program, fname, bindings, universe_bound=6, fuel=32)
        backward = denote(
            inverse, toggle_suffix(fname), inv_bindings, universe_bound=6, fuel=32
        )
        ok = ok and backward == forward.dagger() and len(forward.mapping) > 0

    for program in (swap, add, mapped):
        ok = ok and invert_program(invert_program(program)) == program

    monotone = fuel_monotonicity_check(
        add, "add", {}, samples=1000, max_fuel=40, seed=84,
        value_gen=lambda rng: random_peano_pair(rng, limit=20),
    )
    ok = ok and monotone.passed and monotone.checked == 1000
    _conclude(8, "roundtrips, denotation bridge, double inversion, fuel monotone", ok)


def test_criterion_9_reproducible_structured_reports(capsys, tmp_path):
    add_path = tmp_path / "add.rvl"
    add_path.write_text(
        "fun add (Z, y) = (Z, y)\n"
        "fun add (S x, y) = let (x2, y2) = add (x, y) in (S x2, S y2)\n"
    )
    invocations = [
        ["laws", "--category", "dstoch", "--seed", "7", "--trials", "300",
         "--sizes", "1,2,3,4", "--format", "json"],
        ["laws", "--category", "rel", "--suite", "dagger", "--suite", "order-iso",
         "--max-size", "2", "--format", "json"],
        ["roundtrip", str(add_path), "add", "--trials", "60", "--fuel", "10000",
         "--seed", "1", "--values", "peano", "--format", "json"],
    ]
    ok = True
    for argv in invocations:
        code_a = cli_main(list(argv))
        out_a = capsys.readouterr().out
        code_b = cli_main(list(argv))
        out_b = capsys.readouterr().out
        ok = ok and code_a == code_b == 0
        ok = ok and out_a == out_b and json.loads(out_a)
    _conclude(9, "byte-identical structured reports under a fixed seed", ok)
