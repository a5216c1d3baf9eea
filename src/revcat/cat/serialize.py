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

from ..errors import ParseError
from .ops import MORPHISM_CLASSES


def morphism_from_doc(doc: dict):
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise ParseError("morphism document must be an object with a 'type' field")
    cls = MORPHISM_CLASSES.get(doc["type"])
    if cls is None:
        raise ParseError(f"unknown morphism type {doc['type']!r}")
    return cls.from_doc(doc)


def morphism_to_doc(m) -> dict:
    return m.to_doc()


def loads_morphism(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return morphism_from_doc(doc)


def dumps_morphism(m) -> str:
    return json.dumps(morphism_to_doc(m), sort_keys=True)
