"""Finite relations as bit matrices.

A relation X -> Y is stored as one int per source element, bit j set when
(i, j) is related.  Composition is then boolean matrix product, the
subset order is bitwise implication, and joins are bitwise or.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import ClassVar

from ..errors import DimensionMismatch, TooLarge
from .objects import FinObject, require_fields


@dataclass(frozen=True)
class RelMorphism:
    category: ClassVar[str] = "rel"
    src: FinObject
    dst: FinObject
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.src.size:
            raise DimensionMismatch(
                f"expected {self.src.size} rows, got {len(self.rows)}"
            )
        mask = (1 << self.dst.size) - 1
        for row in self.rows:
            if row < 0 or row & ~mask:
                raise DimensionMismatch("relation bits outside target range")

    @classmethod
    def from_pairs(cls, src: FinObject, dst: FinObject, pairs) -> "RelMorphism":
        rows = [0] * src.size
        for i, j in pairs:
            if not (0 <= i < src.size and 0 <= j < dst.size):
                raise DimensionMismatch(f"pair ({i}, {j}) out of range")
            rows[i] |= 1 << j
        return cls(src, dst, tuple(rows))

    @classmethod
    def bottom(cls, src: FinObject, dst: FinObject) -> "RelMorphism":
        return cls(src, dst, (0,) * src.size)

    @classmethod
    def identity(cls, obj: FinObject) -> "RelMorphism":
        return cls(obj, obj, tuple(1 << i for i in range(obj.size)))

    @classmethod
    def from_doc(cls, doc: dict) -> "RelMorphism":
        require_fields(doc, {"type", "src", "dst", "pairs"})
        return cls.from_pairs(
            FinObject(int(doc["src"])),
            FinObject(int(doc["dst"])),
            [tuple(p) for p in doc["pairs"]],
        )

    def to_doc(self) -> dict:
        return {
            "type": self.category,
            "src": self.src.size,
            "dst": self.dst.size,
            "pairs": [list(p) for p in self.pairs],
        }

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.rows)
            for j in range(self.dst.size)
            if row >> j & 1
        ]

    def compose(self, other: "RelMorphism") -> "RelMorphism":
        """self . other, i.e. run ``other`` first."""
        if other.dst != self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        rows = []
        for row in other.rows:
            acc = 0
            mids = row
            while mids:
                low = mids & -mids
                acc |= self.rows[low.bit_length() - 1]
                mids ^= low
            rows.append(acc)
        return RelMorphism(other.src, self.dst, tuple(rows))

    def dagger(self) -> "RelMorphism":
        cols = [0] * self.dst.size
        for i, row in enumerate(self.rows):
            for j in range(self.dst.size):
                if row >> j & 1:
                    cols[j] |= 1 << i
        return RelMorphism(self.dst, self.src, tuple(cols))

    def leq(self, other: "RelMorphism") -> bool:
        self._same_hom(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def join(self, other: "RelMorphism") -> "RelMorphism":
        self._same_hom(other)
        return RelMorphism(
            self.src, self.dst, tuple(a | b for a, b in zip(self.rows, other.rows))
        )

    def isclose(self, other: "RelMorphism", tolerance: float = 0.0) -> bool:
        """Exact equality: relations have no rounding to tolerate."""
        return self == other

    def block(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "RelMorphism":
        """Sub-relation on index ranges [row_lo, row_hi) x [col_lo, col_hi)."""
        mask = (1 << col_hi) - (1 << col_lo)
        rows = tuple((r & mask) >> col_lo for r in self.rows[row_lo:row_hi])
        return RelMorphism(FinObject(row_hi - row_lo), FinObject(col_hi - col_lo), rows)

    def block_sum(self, other: "RelMorphism") -> "RelMorphism":
        """self (+) other: self on the leading blocks, other on the trailing ones."""
        rows = self.rows + tuple(r << self.dst.size for r in other.rows)
        return RelMorphism(
            FinObject(self.src.size + other.src.size),
            FinObject(self.dst.size + other.dst.size),
            rows,
        )

    def complement(self) -> "RelMorphism":
        mask = (1 << self.dst.size) - 1
        return RelMorphism(self.src, self.dst, tuple(mask ^ row for row in self.rows))

    def _same_hom(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{self!r} and {other!r} live in different hom-sets")

    def __repr__(self):
        return f"Rel({self.src.size}->{self.dst.size}, {self.pairs})"


def enumerate_rel(src: FinObject, dst: FinObject, cap: int = 9) -> list[RelMorphism]:
    cells = src.size * dst.size
    if cells > cap:
        raise TooLarge(f"{2 ** cells} relations exceed the enumeration cap")
    mask = (1 << dst.size) - 1
    row_choices = range(mask + 1)
    return [
        RelMorphism(src, dst, rows)
        for rows in product(row_choices, repeat=src.size)
    ]
