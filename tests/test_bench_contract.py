"""The benchmark's tracer wraps revcat functions and methods by dotted name,
so a refactor that moves a traced name fails here rather than in the
benchmark."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import revcat.cli  # noqa: F401  loads every module whose names the tracer resolves
from revcat.cat.laws import SUITES

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src"


def _load_tracer() -> ModuleType:
    # Run from its text, so that no bytecode cache is written next to it.
    module = ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_name_the_tracer_wraps_resolves():
    tracer = _load_tracer()
    resolved = [tracer._resolve(path) for paths in tracer.FUNCTIONS.values() for path in paths]
    for path in tracer.MORPHISMS:
        members = vars(tracer._resolve(path))
        construct = "__post_init__" if "__post_init__" in members else "__init__"
        resolved += [members[name] for name in (construct, *tracer.MORPHISM_METHODS.values())]
    for targets in tracer.METHODS.values():
        resolved += [vars(tracer._resolve(path))[name] for path, name in targets]
    assert resolved and all(callable(fn) for fn in resolved)


# Runs in its own process, since the tracer rebinds names in revcat modules.
TRACED_LAWS = """
import contextlib, io, json, sys
from types import ModuleType
import revcat.cli
tracer = ModuleType("bench_tracer")
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1], "exec"), tracer.__dict__)
spans = tracer.Tracer()
main = spans.install(revcat.cli.main)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
print(json.dumps({"code": code, "doc": json.loads(out.getvalue()), "calls": spans.summary()["calls"]}))
"""


def test_the_tracer_sees_every_check_a_suite_makes():
    # Suites call their checkers by module-level name when they check, so
    # the tracer's rebinding reaches every call, whatever the registry holds.
    trials = 3
    argv = ["laws", "--category", "pinj", "--max-size", "1", "--seed", "1", "--trials", str(trials),
            "--format", "json"]
    result = subprocess.run(
        [sys.executable, "-c", TRACED_LAWS, str(TRACER), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout)
    entries, calls = run["doc"]["suites"], run["calls"]
    assert run["code"] == 0
    # Checker calls per suite: one per trial for the randomized ones; one per
    # family or trace shape for the others, as pinj has them.
    per_suite = {"fix-adjoint": trials, "pfix-adjoint": trials, "conj-preservation": trials,
                 "pfix-identity": trials, "naturality": 1, "self-conjugate": 2, "dagger-trace": 3}
    core = sorted(set(entries) - set(per_suite))
    assert core == sorted(SUITES)
    assert calls["functionals.checks"] == sum(per_suite.values())
    assert calls["cat.laws"] == len(core)
    assert calls["report.check"] == sum(entry["checked"] for entry in entries.values())
    assert calls.get("report.skip", 0) == sum(entry["skipped"] for entry in entries.values())
