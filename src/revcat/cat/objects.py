"""Finite objects: a size plus an optional label."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ParseError


@dataclass(frozen=True)
class FinObject:
    size: int
    label: Optional[str] = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("object size must be nonnegative")

    def __repr__(self):
        if self.label is None:
            return f"FinObject({self.size})"
        return f"FinObject({self.size}, {self.label!r})"


def require_fields(doc: dict, fields: set[str]) -> None:
    extra = set(doc) - fields
    if extra:
        raise ParseError(f"unknown morphism fields: {sorted(extra)}")
    missing = fields - set(doc)
    if missing:
        raise ParseError(f"missing morphism fields: {sorted(missing)}")
