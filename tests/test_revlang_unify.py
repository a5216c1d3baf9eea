"""Overlap checks on non-linear patterns terminate (Robinson unification
with an occurs check)."""
import os
import subprocess
import sys
from pathlib import Path

from revcat.revlang.parser import parse_program
from revcat.revlang.syntax import unifiable
from revcat.revlang.validate import validate_program

SRC = Path(__file__).resolve().parents[1] / "src"
SELF_OVERLAP = "fun f (x, (x, x)) = x\nfun f (x, (x, x)) = x\n"


def test_nonlinear_self_overlap_validates_and_reports():
    issues = [str(i) for i in validate_program(parse_program(SELF_OVERLAP))]
    assert any("binds a variable twice" in i for i in issues)
    assert any("overlapping inputs" in i for i in issues)


def test_unification_needs_a_finite_solution():
    x_twice = parse_program("fun f (x, x) = x").defs["f"].clauses[0].lhs
    y_succ = parse_program("fun g (y, S y) = y").defs["g"].clauses[0].lhs
    assert not unifiable(x_twice, y_succ)  # x = y and x = S y
    assert unifiable(x_twice, x_twice)


def test_run_on_a_self_overlapping_program_exits_two(tmp_path):
    path = tmp_path / "overlap.rvl"
    path.write_text(SELF_OVERLAP)
    result = subprocess.run(
        [sys.executable, "-m", "revcat.cli", "run", str(path), "f", "--arg", "(Z, (Z, Z))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2
    assert "overlapping inputs" in result.stderr
