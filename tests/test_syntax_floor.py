"""Every source file parses at the oldest Python that ``pyproject.toml``
claims (``requires-python``).

``ast.parse(..., feature_version=...)`` refuses syntax that is newer than
that version, such as ``except*`` or PEP 695 generics.  It cannot catch a
newer library or runtime API (a function, a module or an attribute such as
``code.co_qualname``): that shows only when the tests run on that Python.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
FLOOR = tuple(int(n) for n in re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT, re.M).groups())


def test_newer_syntax_is_refused_at_the_floor():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
