import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from revcat.cli import main

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
    assert doc["converged"] is True


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
    code, out, _ = capture("fix", str(path), "--mode", "metric", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fixed_point"]["rows"][0][0] - 0.5) < 1e-9
    assert doc["iterations"] <= 64


def test_fix_non_convergence_exits_three(capture, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}))
    code, _, err = capture("fix", str(path), "--mode", "metric", "--max-iterations", "3")
    assert code == 3
    assert "non-convergence" in err


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
    code, out, err = capture("fix", str(path), "--mode", "metric")
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
    ],
    ids=[
        "op-not-a-string", "dom-not-a-space", "unknown-category", "rel-float-index",
        "rel-bool-index", "rel-coerced-sizes", "pinj-bool-value", "pinj-underscored-key",
        "dstoch-float-size", "space-float-size", "affine-string-scale", "affine-bool-shift",
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


def test_roundtrip_requires_seed(capture, add_file):
    code, _, err = capture("roundtrip", add_file, "add")
    assert code == 2
    assert "seed" in err


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
