"""Finite objects: a size plus an optional label."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import DimensionMismatch, InvalidArgument, ParseError

# The most cells (source size x target size) a hom-set of rel or pinj may
# have for ``enumerate_rel``/``enumerate_pinj`` to list it: 2**9 relations.
ENUMERATION_CAP = 9


@dataclass(frozen=True)
class FinObject:
    size: int
    label: Optional[str] = None

    def __post_init__(self):
        if self.size < 0:
            raise InvalidArgument(f"object size must be nonnegative, got {self.size}")

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


def read_nat(value, field: str) -> int:
    """A size or index read from a document: a JSON integer >= 0, not a bool."""
    if type(value) is not int or value < 0:
        raise ParseError(f"expected an integer >= 0 in {field!r}, got {value!r}")
    return value


def require_block(f, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> None:
    if not (0 <= row_lo <= row_hi <= f.src.size and 0 <= col_lo <= col_hi <= f.dst.size):
        raise DimensionMismatch(f"block [{row_lo}:{row_hi}, {col_lo}:{col_hi}] does not fit {f!r}")
