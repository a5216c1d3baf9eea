"""Morphism documents: the on-disk JSON format used by the CLI.

One document per morphism; unknown fields are rejected.  Each morphism
class reads and writes its own document (``from_doc`` / ``to_doc``); the
``type`` field names its category.

    {"type": "rel",    "src": 3, "dst": 3, "pairs": [[0, 1], [1, 2]]}
    {"type": "pinj",   "src": 3, "dst": 3, "map": {"0": 2, "1": 0}}
    {"type": "dstoch", "n": 2,   "rows": [[0.5, 0.25], [0.25, 0.5]]}
"""
from __future__ import annotations

import json
import re

from ..errors import ParseError
from .ops import MORPHISM_CLASSES

# The deepest nesting of arrays and objects in a JSON input.  Functional
# documents are decoded, applied and conjugated by recursion, up to four
# frames per level (``conj``), so this keeps every walk well inside Python's
# default recursion limit of 1,000.
MAX_NESTING = 100
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_BRACKET = re.compile(r"[][{}]")


def morphism_from_doc(doc: dict):
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise ParseError("morphism document must be an object with a 'type' field")
    cls = MORPHISM_CLASSES.get(doc["type"])
    if cls is None:
        raise ParseError(f"unknown morphism type {doc['type']!r}")
    return cls.from_doc(doc)


def read_json(text: str):
    """The value of one JSON input: a morphism or functional document, or a
    config file.  Nesting deeper than ``MAX_NESTING`` is a ParseError, as is
    any failure of the decoder: malformed text, or an integer past Python's
    digit limit."""
    depth = 0
    for bracket in _BRACKET.findall(_STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        if depth > MAX_NESTING:
            raise ParseError(f"invalid JSON: nested deeper than {MAX_NESTING}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def loads_morphism(text: str):
    return morphism_from_doc(read_json(text))
