import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from revcat.cat.objects import MAX_SIZE
from revcat.cat.serialize import MAX_NESTING
from revcat.cli import REGISTRY, build_parser, main
from revcat.functionals.expr import conj, loads_functional

from bundled import BUNDLED

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def add_file(tmp_path):
    path = tmp_path / "add.rvl"
    path.write_text(
        "fun add (Z, y) = (Z, y)\n"
        "fun add (S x, y) = let (x2, y2) = add (x, y) in (S x2, S y2)\n"
    )
    return str(path)


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "map.rvl"
    path.write_text(BUNDLED["map"])
    return str(path)


@pytest.fixture()
def closure_file(tmp_path):
    r = {"type": "rel", "src": 3, "dst": 3, "pairs": [[0, 1], [1, 2]]}
    path = tmp_path / "closure.json"
    path.write_text(json.dumps({"op": "joinwith", "m": r, "inner": {"op": "postcompose", "m": r}}))
    return str(path)


def test_laws_dagger_suite_exhaustive_at_size_two(capture):
    code, out, _ = capture(
        "laws", "--category", "rel", "--suite", "dagger", "--sizes", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    report = doc["suites"]["dagger"]
    assert report["violations"] == []
    assert report["by_law"]["compose-dagger"] == 256  # 16 * 16 composable pairs
    assert report["elapsed_ms"] is None


def test_laws_randomized_suite_needs_seed(capture):
    code, _, err = capture("laws", "--category", "dstoch", "--suite", "monotone-dagger")
    assert code == 2
    assert "seed" in err


def test_laws_dstoch_seeded(capture):
    code, out, _ = capture(
        "laws", "--category", "dstoch", "--suite", "monotone-dagger",
        "--trials", "200", "--seed", "7", "--sizes", "1,2,3,4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["suites"]["monotone-dagger"]["checked"] == 200


def test_laws_reports_are_byte_identical_across_runs(capture):
    argv = (
        "laws", "--category", "dstoch", "--seed", "11", "--trials", "150",
        "--sizes", "1,2,3", "--format", "json",
    )
    code_a, out_a, _ = capture(*argv)
    code_b, out_b, _ = capture(*argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_fix_transitive_closure_document(capture, closure_file):
    code, out, _ = capture("fix", closure_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["fixed_point"]["pairs"])) == [(0, 1), (0, 2), (1, 2)]
    assert doc.keys() == {"command", "config", "fixed_point", "iterations", "residual"}


def test_fix_const_document(capture, tmp_path):
    m = {"type": "rel", "src": 2, "dst": 2, "pairs": [[0, 0]]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"op": "const", "m": m}))
    code, out, _ = capture("fix", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["fixed_point"]["pairs"] == [[0, 0]]


def test_fix_affine_metric_mode(capture, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}))
    code, out, _ = capture("fix", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fixed_point"]["rows"][0][0] - 0.5) < 1e-9
    assert doc["iterations"] <= 64


def test_fix_non_convergence_exits_three(capture, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}))
    code, out, err = capture("fix", str(path), "--max-iterations", "3")
    assert (code, out) == (3, "")
    assert err == "error: non-convergence: no fixed point within 3 iterations\n"


def test_fix_text_reports_iterations_and_residual(capture, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}))
    code, out, _ = capture("fix", str(path), "--tolerance", "0")
    assert code == 0
    assert out.splitlines()[1] == "iterations: 55 residual: 0"


@pytest.mark.parametrize(
    "doc",
    [
        {"op": "const", "m": {"type": "dstoch", "n": 1, "rows": [[float("nan")]]}},
        {"op": "const", "m": {"type": "dstoch", "n": 1, "rows": [["0.5"]]}},
        {"op": "const", "m": {"type": "dstoch", "n": 1, "rows": [[True]]}},
        {"op": "const", "m": {"type": "dstoch", "n": 2, "rows": [0.5, 0, 0, 0.5]}},
        {"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": float("nan")},
    ],
    ids=["nan", "numeric-string", "bool", "flat-list", "affine-nan-shift"],
)
def test_fix_refuses_bad_dstoch_matrices_as_input_errors(capture, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = capture("fix", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_fix_rejects_bad_documents(capture, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"op": "identity"}')
    code, _, err = capture("fix", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"op": []}, "'op'"),
        ({"op": "identity", "dom": 3}, "'cat', 'src' and 'dst'"),
        ({"op": "identity", "dom": {"cat": "wat", "src": 1, "dst": 1}}, "'wat' in the 'cat' field"),
        ({"op": "const", "m": {"type": "rel", "src": 2, "dst": 2, "pairs": [[0, 0.5]]}}, "'pairs'"),
        ({"op": "const", "m": {"type": "rel", "src": 2, "dst": 2, "pairs": [[True, 0]]}}, "'pairs'"),
        ({"op": "const", "m": {"type": "rel", "src": "2", "dst": True, "pairs": []}}, "'src'"),
        ({"op": "const", "m": {"type": "pinj", "src": 2, "dst": 2, "map": {"0": True}}}, "'map'"),
        ({"op": "const", "m": {"type": "pinj", "src": 11, "dst": 11, "map": {"1_0": 0}}}, "'map'"),
        ({"op": "const", "m": {"type": "dstoch", "n": 1.7, "rows": [[0.5]]}}, "'n'"),
        ({"op": "identity", "dom": {"cat": "rel", "src": 1.5, "dst": 1}}, "'src'"),
        ({"op": "host", "name": "affine", "n": 1, "scale": "0.5", "shift": 0.25}, "'scale'"),
        ({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": True}, "'shift'"),
        ({"op": "joinwith"}, "'joinwith' node needs a 'm' field"),
        ({"op": "seq", "first": {"op": "dagger", "dom": {"cat": "rel", "src": 1, "dst": 1}}}, "'second'"),
        ({"op": "host", "name": "affine", "scale": 0.5, "shift": 0.25}, "'n'"),
        # A Param leaf reads the parameter of a two-argument functional; a
        # document denotes a one-argument one, so it names no such leaf.
        ({"op": "param", "dom": {"cat": "rel", "src": 1, "dst": 1}}, "unknown functional op 'param'"),
    ],
    ids=[
        "op-not-a-string", "dom-not-a-space", "unknown-category", "rel-float-index",
        "rel-bool-index", "rel-coerced-sizes", "pinj-bool-value", "pinj-underscored-key",
        "dstoch-float-size", "space-float-size", "affine-string-scale", "affine-bool-shift",
        "joinwith-without-m", "seq-without-second", "affine-without-n", "param-leaf",
    ],
)
def test_fix_refuses_malformed_documents_as_input_errors(capture, tmp_path, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = capture("fix", str(path))
    assert code == 2
    assert err.startswith("error:") and named in err
    assert out == ""


def test_fix_has_no_cap_option(closure_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fix", closure_file, "--cap", "3"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_fix_stops_by_the_rule_of_its_hom_set(capture, tmp_path):
    """A dstoch chain stops once a step moves at most --tolerance, so 0 asks
    for exact stabilization; rel and pinj chains stop when a step changes
    nothing, whatever the tolerance."""
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}))
    runs = {}
    for extra in ([], ["--tolerance", "0"]):
        code, out, _ = capture("fix", str(path), *extra, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        runs[tuple(extra)] = (doc["fixed_point"]["rows"], doc["iterations"], doc["residual"])
    assert runs[()] == ([[0.4999999990686774]], 29, 9.313225746154785e-10)
    assert runs[("--tolerance", "0")] == ([[0.5]], 55, 0.0)
    assert capture("fix", str(path), "--tolerance", "0", "--max-iterations", "54")[0] == 3
    r = {"type": "rel", "src": 3, "dst": 3, "pairs": [[0, 1], [1, 2]]}
    path.write_text(json.dumps({"op": "joinwith", "m": r, "inner": {"op": "postcompose", "m": r}}))
    for tolerance in ("0", "1e-9", "0.5"):
        code, out, _ = capture("fix", str(path), "--tolerance", tolerance, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["iterations"], doc["residual"]) == (3, None)
        assert sorted(doc["config"]) == ["file", "max_iterations", "tolerance"]


def test_fix_has_no_mode_option(capture, closure_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fix", closure_file, "--mode", "exact"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "exact"}))
    code, out, err = capture("--config", str(config), "fix", closure_file)
    assert (code, out, err) == (2, "", "error: bad config file for fix: unknown key 'mode'\n")


def test_fix_refuses_cap_in_a_config_file(capture, closure_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cap": 3}))
    code, out, err = capture("--config", str(config), "fix", closure_file)
    assert code == 2
    assert "unknown key 'cap'" in err
    assert out == ""


def test_trace_command_on_orbit_example(capture, tmp_path):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"type": "pinj", "src": 3, "dst": 3, "map": {"0": 1, "1": 2, "2": 0}}))
    code, out, _ = capture("trace", path.as_posix(), "--x", "1", "--y", "1", "--u", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["trace"]["map"] == {"0": 0}


def test_trace_echoes_plain_block_when_no_feedback(capture, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"type": "pinj", "src": 3, "dst": 3, "map": {"0": 0, "1": 2, "2": 1}}))
    code, out, _ = capture("trace", path.as_posix(), "--x", "1", "--y", "1", "--u", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["trace"]["map"] == {"0": 0}


def test_trace_cycling_orbit_is_absent_from_the_output_map(capture, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"type": "rel", "src": 3, "dst": 3, "pairs": [[0, 1], [1, 2], [2, 1]]}))
    code, out, _ = capture("trace", path.as_posix(), "--x", "1", "--y", "1", "--u", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["trace"]["pairs"] == []


DSTOCH_1 = {"cat": "dstoch", "src": 1, "dst": 1}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["fix"],
         {"op": "joinof", "left": {"op": "identity", "dom": DSTOCH_1},
          "right": {"op": "identity", "dom": DSTOCH_1}},
         "binary joins are not provided for dstoch"),
        (["trace", "--x", "1", "--y", "1", "--u", "1"],
         {"type": "dstoch", "n": 2, "rows": [[0.5, 0], [0, 0.5]]},
         "the trace exists for rel and pinj only"),
    ],
    ids=["fix-joinof", "trace"],
)
def test_a_dstoch_document_reaching_a_refused_operation_exits_two(capture, tmp_path, argv, doc, message):
    path = tmp_path / "dstoch.json"
    path.write_text(json.dumps(doc))
    code, out, err = capture(argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_trace_dimension_error_exits_two(capture, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"type": "pinj", "src": 3, "dst": 3, "map": {}}))
    code, _, err = capture("trace", path.as_posix(), "--x", "2", "--y", "2", "--u", "2")
    assert code == 2


def test_run_command(capture, add_file):
    code, out, _ = capture("run", add_file, "add", "--arg", "(S Z, S Z)", "--fuel", "100")
    assert code == 0
    assert out.strip() == "(S Z, S (S Z))"


def test_run_reports_undefined_and_stuck_distinctly(capture, add_file):
    code, out, _ = capture("run", add_file, "add", "--arg", "(S Z, S Z)", "--fuel", "1")
    assert code == 0
    assert "undefined" in out
    code, out, _ = capture("run", add_file, "add", "--arg", "Nil")
    assert code == 0
    assert "stuck" in out


@pytest.mark.parametrize(
    "source, fname",
    [
        ("fun loop x = let y = loop x in y\n", "loop"),
        ("fun f x = let y = g x in y\nfun g x = let y = f x in y\n", "f"),
    ],
)
def test_run_answers_a_call_that_reaches_itself_at_any_fuel(capture, tmp_path, source, fname):
    path = tmp_path / "loop.rvl"
    path.write_text(source)
    code, out, err = capture("run", str(path), fname, "--arg", "Z", "--fuel", "1000000000")
    assert (code, out, err) == (0, "undefined (fuel exhausted)\n", "")


def test_run_inverse_reference(capture, add_file):
    code, out, _ = capture("run", add_file, "add~", "--arg", "(S Z, S (S Z))")
    assert code == 0
    assert out.strip() == "(S Z, S Z)"


def test_run_map_with_inline_static_argument(capture, tmp_path):
    path = tmp_path / "map.rvl"
    path.write_text(
        "fun inc x = S x\n"
        "fun map<g> Nil = Nil\n"
        "fun map<g> (Cons x xs) = let y = g x in let ys = map<g> xs in Cons y ys\n"
    )
    code, out, _ = capture("run", str(path), "map<inc>", "--arg", "Cons Z Nil")
    assert code == 0
    assert out.strip() == "Cons (S Z) Nil"
    code, out, _ = capture("run", str(path), "map", "--bind", "g=inc", "--arg", "Cons Z Nil")
    assert code == 0
    assert out.strip() == "Cons (S Z) Nil"
    code, out, _ = capture("run", str(path), "map", "--bind", "g=inc", "--arg", "Cons Z Nil",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["bind"] == ["g=inc"]
    code, out, _ = capture("run", str(path), "map<inc>", "--arg", "Cons Z Nil", "--format", "json")
    assert json.loads(out)["config"]["bind"] == []


def _numeral(n):
    """``S (S (... Z))`` with ``n`` S, as ``show_term`` prints it."""
    return "Z" if n == 0 else "S (" * (n - 1) + "S Z" + ")" * (n - 1)


def test_run_adds_numerals_of_depth_300(capture, add_file):
    code, out, err = capture("run", add_file, "add", "--arg", f"({_numeral(300)}, {_numeral(300)})")
    assert (code, err) == (0, "")
    assert out == f"({_numeral(300)}, {_numeral(600)})\n"


def test_run_takes_a_numeral_of_depth_20000_on_its_command_line(add_file):
    # One argv string may hold 128 KiB on Linux: about 32,000 levels.
    argv = ["run", add_file, "add", "--arg", f"({_numeral(20_000)}, S Z)", "--fuel", "20001"]
    result = subprocess.run(
        [sys.executable, "-m", "revcat.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"({_numeral(20_000)}, {_numeral(20_001)})\n"


@pytest.mark.parametrize(
    "source, ref",
    [
        ("fun f (" + "S (" * 3000 + "x" + ")" * 3001 + " = x\n", "f"),
        ("fun inc x = S x\n", "map<" * 2000 + "inc" + ">" * 2000),
    ],
    ids=["pattern-3000-deep", "reference-2000-deep"],
)
def test_over_deep_program_text_and_references_exit_two(capture, tmp_path, source, ref):
    path = tmp_path / "deep.rvl"
    path.write_text(source)
    code, out, err = capture("run", str(path), ref, "--arg", "Z")
    assert (code, out) == (2, "")
    assert err.startswith("error: brackets nested deeper than 200") and err.count("\n") == 1


def test_invert_refuses_a_renaming_that_would_drop_a_definition(capture, tmp_path):
    path = tmp_path / "clash.rvl"
    path.write_text("fun f x = S x\nfun f_inv_inv (S x) = x\n")
    code, out, err = capture("invert", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot invert 'f_inv_inv'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "{add}", "add", "--arg", "Z", "--fuel=--"], "--fuel"),
        (["run", "{add}", "add", "--arg=--"], "--arg"),
        (["run", "{add}", "add", "--arg", "Z", "--format=--"], "--format"),
        (["laws", "--category", "rel", "--suite=--", "--sizes", "1"], "--suite"),
        (["laws", "--category", "rel", "--suite", "dagger", "--sizes=--"], "--sizes"),
        (["invert", "{add}", "--output=--"], "-o/--output"),
        (["--config=--", "laws", "--category", "rel", "--suite", "dagger"], "--config"),
    ],
)
def test_an_option_given_as_dashes_is_refused_by_name(capture, add_file, argv, option):
    code, out, err = capture(*(add_file if a == "{add}" else a for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: argument {option}: expected one argument\n"


def test_repeatable_flags_replace_the_config_files_list(capture, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": ["dagger"]}))
    base = ("--config", str(config), "laws", "--category", "rel", "--sizes", "1", "--format", "json")
    for flags, suites in [((), ["dagger"]), (("--suite", "enrichment"), ["enrichment"]),
                          (("--suite", "dagger"), ["dagger"])]:
        code, out, err = capture(*base, *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["suites"] == suites


def test_a_bind_flag_replaces_the_config_files_bindings(capture, map_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bind": ["h=inc"]}))  # map has no parameter h
    code, out, err = capture("--config", str(config), "run", map_file, "map",
                             "--bind", "g=inc", "--arg", "Cons Z Nil")
    assert (code, out, err) == (0, "Cons (S Z) Nil\n", "")


def test_invert_writes_a_runnable_program(capture, add_file, tmp_path):
    out_path = tmp_path / "add_inv.rvl"
    code, _, _ = capture("invert", add_file, "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "fun add_inv" in text
    code, out, _ = capture("run", str(out_path), "add_inv", "--arg", "(S Z, S (S Z))")
    assert code == 0
    assert out.strip() == "(S Z, S Z)"


def test_invert_swap_prints_flipped_clause(capture, tmp_path):
    path = tmp_path / "swap.rvl"
    path.write_text("fun swap (a, b) = (b, a)\n")
    code, out, _ = capture("invert", str(path))
    assert code == 0
    assert out.strip() == "fun swap_inv (b, a) = (a, b)"


def test_parse_error_exits_two(capture, tmp_path):
    path = tmp_path / "bad.rvl"
    path.write_text("fun f (x = x\n")
    code, _, err = capture("run", str(path), "f", "--arg", "Z")
    assert code == 2
    assert "error" in err


def test_validation_error_exits_two(capture, tmp_path):
    path = tmp_path / "overlap.rvl"
    path.write_text("fun f Z = Z\nfun f (S x) = let y = f x in Z\n")
    code, _, err = capture("invert", str(path))
    assert code == 2


def test_roundtrip_command_and_reproducibility(capture, add_file):
    argv = (
        "roundtrip", add_file, "add", "--trials", "100", "--fuel", "10000",
        "--seed", "1", "--values", "peano", "--format", "json",
    )
    code, out_a, _ = capture(*argv)
    assert code == 0
    assert json.loads(out_a)["report"]["violations"] == []
    _, out_b, _ = capture(*argv)
    assert out_a == out_b


def test_the_cli_times_each_whole_suite_once(capture, add_file, monkeypatch):
    # A clock that moves one second per read: a line shows one interval
    # exactly when the run it reports read the CLI's clock twice.
    reads = itertools.count()
    monkeypatch.setattr("revcat.cli.perf_counter", lambda: float(next(reads)))
    code, out, _ = capture("laws", "--category", "pinj", "--max-size", "1", "--seed", "1",
                           "--trials", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == sum("pinj" in suite.categories for suite in REGISTRY.values())
    assert all(line.startswith("suite ") and line.endswith(" [1000.0 ms]") for line in lines)
    code, out, _ = capture("roundtrip", add_file, "add", "--trials", "5", "--seed", "1",
                           "--values", "peano")
    assert code == 0
    assert out.splitlines() == ["suite roundtrip: 10 checked, ok [1000.0 ms]"]


def test_roundtrip_requires_seed(capture, add_file):
    code, _, err = capture("roundtrip", add_file, "add")
    assert code == 2
    assert "seed" in err


def test_run_refuses_non_positive_fuel(capture, add_file):
    for fuel in ("0", "-2"):
        code, out, err = capture("run", add_file, "add", "--arg", "(Z, Z)", "--fuel", fuel)
        assert (code, out) == (2, "")
        assert "--fuel must be positive" in err


def test_roundtrip_refuses_non_positive_fuel(capture, add_file):
    for fuel in ("0", "-3"):
        code, out, err = capture(
            "roundtrip", add_file, "add", "--seed", "1", "--trials", "5", "--fuel", fuel
        )
        assert (code, out) == (2, "")
        assert "--fuel must be positive" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_laws_refuses_a_non_finite_tolerance(capture, tolerance):
    code, out, err = capture(
        "laws", "--category", "dstoch", "--seed", "1", "--trials", "5", "--sizes", "2",
        "--tolerance", tolerance,
    )
    assert (code, out) == (2, "")
    assert "--tolerance must be positive and finite" in err


def test_roundtrip_refuses_a_value_bound_below_one_before_loading(capture, add_file, monkeypatch):
    import revcat.cli

    loaded = []
    monkeypatch.setattr(revcat.cli, "_load_program", loaded.append)
    for bound in ("0", "-1"):
        code, out, err = capture(
            "roundtrip", add_file, "add", "--seed", "1", "--trials", "20", "--value-bound", bound
        )
        assert (code, out) == (2, "")
        assert "--value-bound must be at least 1" in err
    assert loaded == []


def test_roundtrip_takes_a_value_bound_of_one(capture, map_file):
    # map<inc> is defined on the leaf Nil, which a bound of 1 draws.
    code, out, _ = capture(
        "roundtrip", map_file, "map", "--bind", "g=inc", "--seed", "1", "--trials", "20",
        "--value-bound", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["value_bound"] == 1
    assert doc["report"]["checked"] == 18


def test_roundtrip_that_checks_nothing_exits_two(capture, add_file):
    # A bound of 1 draws only leaves, and add is defined on none of them.
    code, out, err = capture(
        "roundtrip", add_file, "add", "--seed", "1", "--trials", "20", "--value-bound", "1"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: all 20 trials were skipped") and err.count("\n") == 1


@pytest.mark.parametrize("values", ["peano", "list"])
def test_roundtrip_refuses_a_value_bound_it_would_ignore(capture, add_file, map_file, tmp_path, values):
    program = [add_file, "add"] if values == "peano" else [map_file, "map", "--bind", "g=inc"]
    argv = ["roundtrip", *program, "--seed", "3", "--trials", "5", "--values", values]
    code, out, err = capture(*argv, "--value-bound", "16")
    assert (code, out) == (2, "")
    assert "--value-bound bounds tree values only" in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"value_bound": 4}))
    code, out, err = capture("--config", str(config), *argv)
    assert (code, out) == (2, "")
    assert "--value-bound bounds tree values only" in err
    # Left unset, it is reported at its default.
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["value_bound"] == 16


def test_an_unexpected_exception_exits_four_without_a_traceback(capture, monkeypatch):
    import revcat.cli

    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(revcat.cli, "cmd_trace", crash)
    code, out, err = capture("trace", "any.json", "--x", "1", "--y", "1", "--u", "0")
    assert (code, out) == (4, "")
    assert err == "error: internal: RuntimeError: boom second line\n"


@pytest.mark.parametrize("exc", [ValueError("bad value"), KeyError("key")])
def test_a_library_value_or_key_error_exits_four(capture, monkeypatch, exc):
    import revcat.cli

    def crash(args):
        raise exc

    monkeypatch.setattr(revcat.cli, "cmd_trace", crash)
    code, out, err = capture("trace", "any.json", "--x", "1", "--y", "1", "--u", "0")
    assert (code, out) == (4, "")
    assert err.startswith(f"error: internal: {type(exc).__name__}:")


@pytest.mark.parametrize(
    "argv",
    [
        ["laws", "--category", "rel", "--suite", "dagger", "--sizes", "-1"],
        ["trace", "{doc}", "--x", "-1", "--y", "1", "--u", "0"],
        ["fix", "{doc}", "--max-iterations", "0"],
        ["fix", "{doc}", "--tolerance", "nan"],
        ["fix", "{doc}", "--tolerance", "inf"],
        ["roundtrip", "{program}", "map", "--seed", "1", "--bind", "g=nope", "--values", "list"],
        ["run", "{conflicting}", "f", "--arg", "Z"],
        ["run", "{program}", "inc", "--bind", "x=inc", "--arg", "Z"],
        ["roundtrip", "{program}", "inc", "--seed", "1", "--bind", "x=inc"],
    ],
    ids=["negative-size", "negative-trace-size", "no-iterations", "nan-fix-tolerance", "inf-fix-tolerance",
         "binding-to-unknown-function", "conflicting-parameter-lists",
         "run-binding-no-parameter", "roundtrip-binding-no-parameter"],
)
def test_bad_values_reaching_the_library_exit_two(capture, tmp_path, argv):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"op": "joinwith", "m": {"type": "rel", "src": 1, "dst": 1, "pairs": []}}))
    program = tmp_path / "map.rvl"
    program.write_text("fun inc x = S x\nfun map<g> Nil = Nil\n")
    conflicting = tmp_path / "conflicting.rvl"
    conflicting.write_text("fun f<g> x = x\nfun f y = y\n")
    paths = {"{doc}": str(doc), "{program}": str(program), "{conflicting}": str(conflicting)}
    code, out, err = capture(*(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "internal" not in err


def test_unknown_parameter_and_function_names_are_named(capture, map_file):
    code, out, err = capture("run", map_file, "inc", "--bind", "x=inc", "--bind", "y=inc", "--arg", "Z")
    assert (code, out, err) == (2, "", "error: inc has no parameter(s): x, y\n")
    code, out, err = capture("run", map_file, "nope", "--arg", "Z")
    assert (code, out, err) == (2, "", "error: unknown function 'nope'\n")


@pytest.mark.parametrize(
    "ref, bind, message",
    [
        ("map<nope>", [], "unknown function 'nope'"),
        ("map", ["--bind", "g=nope"], "unknown function 'nope'"),
        ("map<map>", [], "call to 'map' passes 0 static argument(s), expected 1"),
        ("map", ["--bind", "g=map"], "call to 'map' passes 0 static argument(s), expected 1"),
        ("map<inc>", ["--bind", "g=inc"], "give map's static arguments inline or bound, not both"),
    ],
)
def test_a_bad_reference_is_refused_whatever_the_input(capture, map_file, ref, bind, message):
    for arg in ("Nil", "Cons Z Nil"):
        assert capture("run", map_file, ref, *bind, "--arg", arg) == (2, "", f"error: {message}\n")
    argv = ["roundtrip", map_file, ref, *bind, "--seed", "1", "--values", "list"]
    assert capture(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "program, ref, values",
    [("map", "map<inc>", "list"), ("map", "map<inc~>~", "list"), ("add", "add~", "peano")],
)
def test_roundtrip_takes_the_references_run_takes(capture, tmp_path, program, ref, values):
    path = tmp_path / "program.rvl"
    path.write_text(BUNDLED[program])
    code, out, _ = capture(
        "roundtrip", str(path), ref, "--seed", "1", "--trials", "50", "--values", values,
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["report"]["checked"] > 0


@pytest.mark.parametrize(
    "argv, config, option",
    [
        (["fix", "{doc}"], {"max_iterations": "many"}, "--max-iterations"),
        (["laws", "--category", "rel", "--suite", "dagger"], {"max_size": [1]}, "--max-size"),
        (["roundtrip", "{program}", "add", "--seed", "1"], {"trials": True}, "--trials"),
        (["roundtrip", "{program}", "add", "--seed", "1"], {"values": "bogus"}, "--values"),
        (["fix", "{doc}"], {"format": "yaml"}, "--format"),
        (["run", "{program}", "add", "--arg", "Z"], {"fuel": 2.5}, "--fuel"),
        (["run", "{program}", "add", "--arg", "Z"], {"bind": {"g": "inc"}}, "--bind"),
    ],
    ids=["max-iterations", "max-size", "trials", "values", "format", "fuel", "bind"],
)
def test_a_config_value_gets_the_checks_of_its_flag(capture, tmp_path, argv, config, option):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"op": "joinwith", "m": {"type": "rel", "src": 1, "dst": 1, "pairs": []}}))
    program = tmp_path / "add.rvl"
    program.write_text(BUNDLED["add"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    paths = {"{doc}": str(doc), "{program}": str(program)}
    code, out, err = capture("--config", str(path), *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad config file for {argv[0]}: argument {option}")
    assert err.count("\n") == 1


def test_config_values_are_converted_as_flags_are(capture, map_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bind": "g=inc", "fuel": "50", "format": "json"}))
    code, out, _ = capture("--config", str(config), "run", map_file, "map", "--arg", "Cons Z Nil")
    assert code == 0
    assert json.loads(out)["value"] == "Cons (S Z) Nil"
    assert json.loads(out)["config"]["fuel"] == 50
    assert json.loads(out)["config"]["bind"] == ["g=inc"]


@pytest.mark.parametrize(
    "argv, config, flags",
    [
        (["laws", "--suite", "dagger"], {"category": "rel", "max_size": 1}, {"category": "pinj"}),
        (["trace", "m.json"], {"x": 1, "y": 1, "u": 0}, {"x": 0, "y": 0, "u": 1}),
    ],
    ids=["laws", "trace"],
)
def test_a_config_file_supplies_required_options(capture, capsys, tmp_path, monkeypatch, argv, config, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"type": "rel", "src": 1, "dst": 1, "pairs": [[0, 0]]}))
    (tmp_path / "config.json").write_text(json.dumps(config))
    required = [f"--{key}" for key in flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {', '.join(required)}" in capsys.readouterr().err
    code, out, err = capture("--config", "config.json", *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert {key: json.loads(out)["config"][key] for key in flags} == {key: config[key] for key in flags}
    # A flag still overrides the file.
    given = [item for key, value in flags.items() for item in (f"--{key}", str(value))]
    code, out, err = capture("--config", "config.json", *argv, *given, "--format", "json")
    assert (code, err) == (0, "")
    assert {key: json.loads(out)["config"][key] for key in flags} == flags


@pytest.mark.parametrize("sizes", ["1,1", "0,2,0", ""])
def test_laws_refuses_repeated_or_empty_sizes(capture, tmp_path, sizes):
    argv = ["laws", "--category", "rel", "--suite", "dagger", "--sizes", sizes]
    code, out, err = capture(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sizes": sizes}))
    assert capture("--config", str(config), *argv[:-2]) == (code, out, err)


@pytest.mark.parametrize("suffix", ["", "~x", "a b", "-", "_inv~"])
def test_invert_refuses_a_suffix_it_could_not_read_back(capture, add_file, tmp_path, suffix):
    code, out, err = capture("invert", add_file, f"--suffix={suffix}")
    assert (code, out) == (2, "")
    assert err.startswith("error: suffix must be") and err.count("\n") == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suffix": suffix}))
    assert capture("--config", str(config), "invert", add_file) == (code, out, err)


# Each subcommand with explicit flags that keep its work small; a config
# value for an option given here is converted and checked, then overridden.
SMALL_RUNS = {
    "laws": ["laws", "--category", "rel", "--suite", "dagger", "--sizes", "1", "--trials", "2"],
    "fix": ["fix", "doc.json"],
    "trace": ["trace", "m.json", "--x", "1", "--y", "1", "--u", "0"],
    "run": ["run", "add.rvl", "add", "--arg", "(S Z, Z)"],
    "invert": ["invert", "add.rvl"],
    "roundtrip": ["roundtrip", "add.rvl", "add", "--trials", "2", "--seed", "1", "--values", "peano"],
}
_, COMMANDS = build_parser()
CONFIG_KEYS = {
    name: sorted(a.dest for a in p._actions if a.option_strings and a.dest not in ("help", "output"))
    for name, p in COMMANDS.items()
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["json", "peano", "metric", "g=inc", "1,1", "", "-1", "0", "2", "dagger"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@seed(14)
@settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_no_config_value_crashes_a_command(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "add.rvl").write_text(BUNDLED["add"])
    rel = {"type": "rel", "src": 1, "dst": 1, "pairs": [[0, 0]]}
    (tmp_path / "m.json").write_text(json.dumps(rel))
    (tmp_path / "doc.json").write_text(json.dumps({"op": "joinwith", "m": rel}))
    command = data.draw(st.sampled_from(sorted(SMALL_RUNS)))
    key = data.draw(st.sampled_from(CONFIG_KEYS[command]))
    (tmp_path / "config.json").write_text(json.dumps({key: data.draw(JSON_VALUES)}))
    try:
        code = main(["--config", "config.json", *SMALL_RUNS[command]])
    except SystemExit as exc:  # argparse refusing the command line
        code = exc.code
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "content",
    [b"{", b"\xff\xfe{", b"[" * 5_000 + b"]" * 5_000, b"1" * 5_000],
    ids=["bad-json", "not-utf8", "too-deep", "5000-digits"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["fix", "{file}"],
        ["trace", "{file}", "--x", "1", "--y", "1", "--u", "0"],
        ["run", "{file}", "f", "--arg", "Z"],
        ["invert", "{file}"],
        ["--config", "{file}", "laws", "--category", "rel", "--suite", "dagger", "--sizes", "1"],
    ],
    ids=["fix", "trace", "run", "invert", "config"],
)
def test_every_loader_refuses_unreadable_input_with_exit_two(capture, tmp_path, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = capture(*(str(path) if a == "{file}" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "internal" not in err and err.count("\n") == 1


def test_a_config_file_nested_past_the_decoders_depth_exits_two(capture, tmp_path):
    # json.load raises RecursionError, not ValueError, about 1,000 levels deep.
    path = tmp_path / "deep.json"
    path.write_text("[" * 5_000 + "]" * 5_000)
    code, out, err = capture(
        "--config", str(path), "laws", "--category", "rel", "--suite", "dagger", "--sizes", "1"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: bad config file:") and err.count("\n") == 1


# An input of each JSON reader nested ``depth`` deep, and its command line.
NESTED = {
    # Daggers around an identity: a functional that ``fix`` runs.
    "fix": (
        lambda depth: '{"op": "dagger", "inner": ' * (depth - 2)
        + '{"op": "identity", "dom": {"cat": "rel", "src": 1, "dst": 1}}'
        + "}" * (depth - 2),
        ["fix", "{file}"],
    ),
    # Nested lists where a morphism's pairs, or an option's value, belong.
    "trace": (
        lambda depth: '{"type": "rel", "src": 1, "dst": 1, "pairs": '
        + "[" * (depth - 1) + "]" * (depth - 1) + "}",
        ["trace", "{file}", "--x", "1", "--y", "1", "--u", "0"],
    ),
    "config": (
        lambda depth: '{"seed": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}",
        ["--config", "{file}", "laws", "--category", "rel", "--suite", "dagger", "--sizes", "1"],
    ),
}


@pytest.mark.parametrize("command", sorted(NESTED))
def test_json_is_read_to_the_nesting_bound_and_refused_past_it(capture, tmp_path, command):
    document, argv = NESTED[command]
    path = tmp_path / "input.json"
    argv = [str(path) if a == "{file}" else a for a in argv]
    path.write_text(document(MAX_NESTING))
    code, out, err = capture(*argv)
    # At the bound the reader hands the value on: fix runs it, and trace and
    # laws refuse it for what it holds, as they would at any depth.
    if command == "fix":
        assert (code, err) == (0, "") and out.startswith("fixed point: ")
        # conj, the deepest walk (four frames a level), also takes it.
        phi = loads_functional(path.read_text())
        assert conj(phi).apply(phi.dom.bottom) == phi.dom.bottom
    else:
        assert (code, out) == (2, "") and "nested" not in err and err.count("\n") == 1
    path.write_text(document(MAX_NESTING + 1))
    code, out, err = capture(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith(f"invalid JSON: nested deeper than {MAX_NESTING}\n")


# Each JSON reader's command line, and documents that hold the nested value
# ``@`` where the reader looks for one: whole, or as one field.
HOSTS = {
    "fix": (["fix", "{file}"], ["@", '{"op": "dagger", "inner": @}', '{"op": "joinwith", "m": @}']),
    "trace": (
        ["trace", "{file}", "--x", "1", "--y", "1", "--u", "0"],
        ["@", '{"type": "rel", "src": 1, "dst": 1, "pairs": @}'],
    ),
    "config": (
        ["--config", "{file}", "laws", "--category", "rel", "--suite", "dagger", "--sizes", "1"],
        ["@", '{"seed": @}', '{"suite": @}'],
    ),
}


DAGGER = '{"op": "dagger", "inner": '
IDENTITY = '{"op": "identity", "dom": {"cat": "rel", "src": 1, "dst": 1}}'


@st.composite
def nested_json(draw):
    """JSON text nested 1 to 300 levels deep: in arrays, in objects, or in
    both, mixed level by level.  Objects are dagger nodes around an identity
    functional, which ``fix`` walks at any depth it is handed, or have one
    field of a name the readers look for."""
    depth = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["arrays", "objects", "mixed"]))
    arrays = (
        draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
        if shape == "mixed" else [shape == "arrays"] * depth
    )
    if draw(st.booleans()):
        opens = "".join("[" if array else DAGGER for array in arrays)
        leaf = IDENTITY
    else:
        keys = draw(st.lists(st.sampled_from(["op", "inner", "m", "pairs", "src", "seed"]),
                             min_size=depth, max_size=depth))
        opens = "".join("[" if array else f'{{"{key}": ' for array, key in zip(arrays, keys))
        leaf = draw(st.sampled_from(["0", "1", '"x"', "null", "[]", "{}"]))
    return opens + leaf + "".join("]" if array else "}" for array in reversed(arrays))


@settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_no_nesting_of_json_crashes_a_reader(capture, tmp_path, data):
    command = data.draw(st.sampled_from(sorted(HOSTS)))
    argv, hosts = HOSTS[command]
    path = tmp_path / "input.json"
    path.write_text(data.draw(st.sampled_from(hosts)).replace("@", data.draw(nested_json())))
    try:
        code, out, err = capture(*[str(path) if a == "{file}" else a for a in argv])
    except SystemExit as exc:  # argparse refusing the command line
        code, err = exc.code, ""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "internal" not in err


def _rel(n):
    return {"type": "rel", "src": n, "dst": n, "pairs": []}


def _trace(x, y, u):
    return ["trace", "{file}", "--x", str(x), "--y", str(y), "--u", str(u)]


def _laws(flag, n):
    return ["laws", "--category", "dstoch", "--suite", "monotone-dagger", "--trials", "1",
            "--seed", "1", flag, str(n)]


# Each reader of an object size: ``n |-> (command line, document or None)``,
# and its exit code when ``n`` is MAX_SIZE.
SIZE_READERS = {
    "rel": (lambda n: (_trace(n, n, 0), _rel(n)), 0),
    "pinj": (lambda n: (_trace(n, n, 0), {"type": "pinj", "src": n, "dst": n, "map": {}}), 0),
    "dstoch": (
        lambda n: (["fix", "{file}"], {"op": "const", "m": {
            "type": "dstoch", "n": n, "rows": [[0] * n] * n if n <= MAX_SIZE else []}}),
        0,
    ),
    "affine": (
        lambda n: (["fix", "{file}", "--max-iterations", "1"],
                   {"op": "host", "name": "affine", "n": n, "scale": 0.5, "shift": 0.25}),
        3,
    ),
    "dom": (lambda n: (["fix", "{file}"], {"op": "identity", "dom": {"cat": "rel", "src": n, "dst": 1}}), 0),
    "--x": (lambda n: (_trace(n, MAX_SIZE, 0), _rel(MAX_SIZE)), 0),
    "--y": (lambda n: (_trace(MAX_SIZE, n, 0), _rel(MAX_SIZE)), 0),
    "--u": (lambda n: (_trace(0, 0, n), _rel(MAX_SIZE)), 0),
    "--sizes": (lambda n: (_laws("--sizes", n), None), 0),
    "--max-size": (lambda n: (_laws("--max-size", n), None), 0),
}


def _run_sized(capture, tmp_path, reader, n):
    argv, doc = SIZE_READERS[reader][0](n)
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    return capture(*[str(path) if a == "{file}" else a for a in argv])


@pytest.mark.parametrize("reader", sorted(SIZE_READERS))
def test_every_size_an_input_names_is_bounded_where_it_is_read(capture, tmp_path, reader):
    code, _, err = _run_sized(capture, tmp_path, reader, MAX_SIZE)
    assert code == SIZE_READERS[reader][1], err
    code, out, err = _run_sized(capture, tmp_path, reader, MAX_SIZE + 1)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"is {MAX_SIZE + 1}, past the bound on object sizes MAX_SIZE = {MAX_SIZE}" in err


@settings(
    max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_no_size_crashes_a_reader(capture, tmp_path, data):
    reader = data.draw(st.sampled_from(sorted(SIZE_READERS)))
    n = data.draw(st.one_of(st.integers(0, 2 * MAX_SIZE), st.integers(0, 10**12)))
    code, _, err = _run_sized(capture, tmp_path, reader, n)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "internal" not in err


def test_a_number_too_long_to_read_is_refused_where_a_size_or_index_goes(capture, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"type": "pinj", "src": 1, "dst": 1, "map": {"1" * 5000: 0}}))
    code, out, err = capture("trace", str(path), "--x", "1", "--y", "1", "--u", "0")
    assert (code, out) == (2, "") and "expected a key in 'map'" in err
    code, out, err = capture("laws", "--category", "rel", "--sizes", str(MAX_SIZE), "--suite", "dagger")
    assert (code, out, err) == (2, "", f"error: 2**{MAX_SIZE ** 2} relations exceed the enumeration cap\n")


def test_config_file_supplies_defaults(capture, add_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fuel": 1}))
    code, out, _ = capture(
        "--config", str(config), "run", add_file, "add", "--arg", "(S Z, S Z)"
    )
    assert code == 0
    assert "undefined" in out  # fuel 1 from the config file
    code, out, _ = capture(
        "--config", str(config), "run", add_file, "add", "--arg", "(S Z, S Z)", "--fuel", "50"
    )
    assert out.strip() == "(S Z, S (S Z))"  # flags override the file


def test_the_cli_imports_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, revcat.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_the_cli_imports_no_module_that_generates_code():
    # Value classes are built from closures (revcat.record), not dataclasses.
    modules = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, revcat.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))",
         *modules],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_module_under_src_calls_exec_eval_or_compile():
    called = [
        (path.name, node.func.id)
        for path in sorted((SRC / "revcat").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]
    assert called == []
