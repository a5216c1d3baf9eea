"""The benchmark's tracer wraps revcat functions and methods by dotted name,
so a refactor that moves a traced name fails here rather than in the
benchmark."""
from pathlib import Path
from types import ModuleType

import revcat.cli  # noqa: F401  loads every module whose names the tracer resolves

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
