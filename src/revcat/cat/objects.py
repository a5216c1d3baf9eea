"""Finite objects: a size plus an optional label."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import DimensionMismatch, ParseError


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


def require_block(f, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> None:
    if not (0 <= row_lo <= row_hi <= f.src.size and 0 <= col_lo <= col_hi <= f.dst.size):
        raise DimensionMismatch(f"block [{row_lo}:{row_hi}, {col_lo}:{col_hi}] does not fit {f!r}")
