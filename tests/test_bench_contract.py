"""The benchmark's tracer wraps revcat functions and methods by dotted name,
so a refactor that moves a traced name fails here rather than in the
benchmark."""
import contextlib
import io
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


TRIALS = 3
TRACED_ARGV = ["laws", "--category", "pinj", "--max-size", "1", "--seed", "1", "--trials", str(TRIALS),
               "--format", "json"]


def traced_laws(argv) -> dict:
    """``revcat`` run under the tracer in this process, whose names it
    rebinds for good: the exit code, the JSON document and the call counts."""
    spans = _load_tracer().Tracer()
    main = spans.install(revcat.cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"code": code, "doc": json.loads(out.getvalue()), "calls": spans.summary()["calls"]}


def check_every_check_traced(run) -> None:
    """The calls ``traced_laws(TRACED_ARGV)`` counted match its document."""
    entries, calls = run["doc"]["suites"], run["calls"]
    assert run["code"] == 0
    # Checker calls per suite: one per trial for the randomized ones; one per
    # family or trace shape for the others, as pinj has them.
    per_suite = {"fix-adjoint": TRIALS, "pfix-adjoint": TRIALS, "conj-preservation": TRIALS,
                 "pfix-identity": TRIALS, "naturality": 1, "self-conjugate": 2, "dagger-trace": 3}
    core = sorted(set(entries) - set(per_suite))
    assert core == sorted(SUITES)
    assert calls["functionals.checks"] == sum(per_suite.values())
    assert calls["cat.laws"] == len(core)
    assert calls["report.check"] == sum(entry["checked"] for entry in entries.values())
    assert calls.get("report.skip", 0) == sum(entry["skipped"] for entry in entries.values())


def test_the_tracer_sees_every_check_a_suite_makes():
    # Suites call their checkers by module-level name when they check, so
    # the tracer's rebinding reaches every call, whatever the registry holds.
    # Traced in its own process, since the tracer rebinds names in revcat
    # modules.
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys, test_bench_contract as t\n"
                               "print(json.dumps(t.traced_laws(sys.argv[1:])))", *TRACED_ARGV],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT / "tests")]),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    check_every_check_traced(json.loads(result.stdout))
