"""Finite relations as bit matrices.

A relation X -> Y is stored as one int per source element, bit j set when
(i, j) is related.  Composition is then boolean matrix product, the
subset order is bitwise implication, and joins are bitwise or.

Values are validated when built through the public constructors; the
operations build their results with ``RelMorphism._make``, which skips that
check, because a result computed from valid operands is valid.  Values have
slots and no ``__dict__``, and ``_make`` (``objects.trusted_make``) fills the
slots directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import ClassVar

from ..errors import DimensionMismatch, ParseError, TooLarge
from .objects import ENUMERATION_CAP, FinObject, read_nat, require_fields, same_hom, trusted_make

# The cache holds twice the largest hom-set ``enumerate_rel`` builds at its
# default cap, so the daggers of one exhaustive suite all stay cached.
@lru_cache(maxsize=2 ** (ENUMERATION_CAP + 1))
def _transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Columns of a relation of ``width`` targets, as rows of its converse."""
    cols = [0] * width
    for i, row in enumerate(rows):
        j = 0
        while row:
            if row & 1:
                cols[j] |= 1 << i
            row >>= 1
            j += 1
    return tuple(cols)


@trusted_make
@dataclass(frozen=True, slots=True)
class RelMorphism:
    category: ClassVar[str] = "rel"
    has_joins: ClassVar[bool] = True
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
        return cls._make(src, dst, (0,) * src.size)

    @classmethod
    def identity(cls, obj: FinObject) -> "RelMorphism":
        return cls._make(obj, obj, tuple(1 << i for i in range(obj.size)))

    @classmethod
    def homs(cls, src: FinObject, dst: FinObject) -> list["RelMorphism"]:
        return enumerate_rel(src, dst)

    @classmethod
    def sup(cls, chain: list["RelMorphism"]) -> "RelMorphism":
        return reduce(cls.join, chain)

    @classmethod
    def from_rel(cls, r: "RelMorphism") -> "RelMorphism":
        return r

    def to_rel(self) -> "RelMorphism":
        return self

    @classmethod
    def from_doc(cls, doc: dict) -> "RelMorphism":
        require_fields(doc, {"type", "src", "dst", "pairs"})
        pairs = doc["pairs"]
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
        ):
            raise ParseError(f"expected a list of [source, target] pairs in 'pairs', got {pairs!r}")
        return cls.from_pairs(
            FinObject(read_nat(doc["src"], "src")),
            FinObject(read_nat(doc["dst"], "dst")),
            [(read_nat(i, "pairs"), read_nat(j, "pairs")) for i, j in pairs],
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
        if other.dst is not self.src and other.dst != self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        mine = self.rows
        rows = []
        for row in other.rows:
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc |= mine[j]
                row >>= 1
                j += 1
            rows.append(acc)
        return RelMorphism._make(other.src, self.dst, tuple(rows))

    def dagger(self) -> "RelMorphism":
        return RelMorphism._make(self.dst, self.src, _transpose(self.rows, self.dst.size))

    def leq(self, other: "RelMorphism", tolerance: float = 0.0) -> bool:
        same_hom(self, other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def join(self, other: "RelMorphism") -> "RelMorphism":
        same_hom(self, other)
        return RelMorphism._make(
            self.src, self.dst, tuple(a | b for a, b in zip(self.rows, other.rows))
        )

    def isclose(self, other: "RelMorphism", tolerance: float = 0.0) -> bool:
        """Exact equality: relations have no rounding to tolerate."""
        return self == other

    def block(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "RelMorphism":
        """Sub-relation on index ranges [row_lo, row_hi) x [col_lo, col_hi)."""
        if not (0 <= row_lo <= row_hi <= self.src.size and 0 <= col_lo <= col_hi <= self.dst.size):
            raise DimensionMismatch(f"block [{row_lo}:{row_hi}, {col_lo}:{col_hi}] does not fit {self!r}")
        mask = (1 << col_hi) - (1 << col_lo)
        rows = tuple((r & mask) >> col_lo for r in self.rows[row_lo:row_hi])
        return RelMorphism._make(FinObject(row_hi - row_lo), FinObject(col_hi - col_lo), rows)

    def block_sum(self, other: "RelMorphism") -> "RelMorphism":
        """self (+) other: self on the leading blocks, other on the trailing ones."""
        rows = self.rows + tuple(r << self.dst.size for r in other.rows)
        return RelMorphism._make(
            FinObject(self.src.size + other.src.size),
            FinObject(self.dst.size + other.dst.size),
            rows,
        )

    def __repr__(self):
        return f"Rel({self.src.size}->{self.dst.size}, {self.pairs})"


def enumerate_rel(src: FinObject, dst: FinObject, cap: int = ENUMERATION_CAP) -> list[RelMorphism]:
    cells = src.size * dst.size
    if cells > cap:
        raise TooLarge(f"{2 ** cells} relations exceed the enumeration cap")
    mask = (1 << dst.size) - 1
    row_choices = range(mask + 1)
    return [
        RelMorphism._make(src, dst, rows)
        for rows in product(row_choices, repeat=src.size)
    ]
