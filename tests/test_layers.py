"""The layers of ``revcat`` import downward only.

Each module under ``src/revcat`` is imported alone, from a state with no
``revcat`` module loaded, and the layers it loads are checked: ``cat`` is
the base, ``order`` sits on it, ``functionals`` on both, and the language
reaches ``cat`` only through ``revlang.denote``.  No package re-exports a
name, so a module loads only what its own imports name.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "revcat").rglob("*.py")
)
LOADS = r"""
import importlib, json, sys
loads = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules if m == "revcat" or m.startswith("revcat.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
    loads[name] = sorted(m for m in sys.modules if m == "revcat" or m.startswith("revcat."))
print(json.dumps(loads))
"""
# Layer -> the layers its modules may not load.  No module but ``cli`` loads
# ``cli``; ``record`` and ``errors`` load no other layer at all.
FORBIDDEN = {
    "cat": {"functionals", "order", "revlang"},
    "order": {"functionals", "revlang"},
    "functionals": {"revlang"},
    "revlang": {"cat", "order", "functionals"},
}
# The language's one edge into the categories: a program denotes a partial injection.
ALLOWED = {"revcat.revlang.denote": {"cat"}}


def layer(module: str) -> str:
    """``cat``, ``functionals`` or ``revlang`` for a module of those packages;
    otherwise the module's own name under ``revcat``, or ``revcat`` itself."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "revcat"


@pytest.fixture(scope="module")
def loads():
    result = subprocess.run(
        [sys.executable, "-c", LOADS, json.dumps(MODULES)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_loads_no_layer_above_its_own(loads, module):
    loaded = loads[module]
    assert module in loaded
    layers = {layer(m) for m in loaded} - {"revcat"}
    own = layer(module)
    if own in ("record", "errors"):
        assert layers == {own}
    if own != "cli":
        assert "cli" not in layers
    assert layers & FORBIDDEN.get(own, set()) <= ALLOWED.get(module, set())

