"""Partial injective maps between finite sets.

The assignment table has one slot per source element, holding either the
image index or None.  The refinement order is graph extension; joins exist
only for compatible graphs and otherwise raise IncompatibleJoin.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import ClassVar, Optional

from ..errors import DimensionMismatch, IncompatibleJoin, TooLarge
from .objects import FinObject, require_fields
from .rel import RelMorphism


@dataclass(frozen=True)
class PInjMorphism:
    category: ClassVar[str] = "pinj"
    src: FinObject
    dst: FinObject
    table: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.table) != self.src.size:
            raise DimensionMismatch(
                f"expected {self.src.size} entries, got {len(self.table)}"
            )
        seen = set()
        for j in self.table:
            if j is None:
                continue
            if not 0 <= j < self.dst.size:
                raise DimensionMismatch(f"target index {j} out of range")
            if j in seen:
                raise DimensionMismatch(f"not injective: target {j} hit twice")
            seen.add(j)

    @classmethod
    def from_map(cls, src: FinObject, dst: FinObject, mapping: dict) -> "PInjMorphism":
        table: list[Optional[int]] = [None] * src.size
        for i, j in mapping.items():
            i = int(i)
            if not 0 <= i < src.size:
                raise DimensionMismatch(f"source index {i} out of range")
            table[i] = j
        return cls(src, dst, tuple(table))

    @classmethod
    def bottom(cls, src: FinObject, dst: FinObject) -> "PInjMorphism":
        return cls(src, dst, (None,) * src.size)

    @classmethod
    def identity(cls, obj: FinObject) -> "PInjMorphism":
        return cls(obj, obj, tuple(range(obj.size)))

    @classmethod
    def from_doc(cls, doc: dict) -> "PInjMorphism":
        require_fields(doc, {"type", "src", "dst", "map"})
        return cls.from_map(
            FinObject(int(doc["src"])),
            FinObject(int(doc["dst"])),
            {int(k): int(v) for k, v in doc["map"].items()},
        )

    def to_doc(self) -> dict:
        return {
            "type": self.category,
            "src": self.src.size,
            "dst": self.dst.size,
            "map": {str(i): j for i, j in sorted(self.mapping.items())},
        }

    @property
    def mapping(self) -> dict[int, int]:
        return {i: j for i, j in enumerate(self.table) if j is not None}

    def compose(self, other: "PInjMorphism") -> "PInjMorphism":
        """self . other, i.e. run ``other`` first."""
        if other.dst != self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        table = tuple(
            self.table[j] if j is not None else None for j in other.table
        )
        return PInjMorphism(other.src, self.dst, table)

    def dagger(self) -> "PInjMorphism":
        table: list[Optional[int]] = [None] * self.dst.size
        for i, j in enumerate(self.table):
            if j is not None:
                table[j] = i
        return PInjMorphism(self.dst, self.src, tuple(table))

    def leq(self, other: "PInjMorphism") -> bool:
        self._same_hom(other)
        return all(
            j is None or other.table[i] == j for i, j in enumerate(self.table)
        )

    def join(self, other: "PInjMorphism") -> "PInjMorphism":
        self._same_hom(other)
        table: list[Optional[int]] = list(self.table)
        for i, j in enumerate(other.table):
            if j is None:
                continue
            if table[i] is not None and table[i] != j:
                raise IncompatibleJoin(
                    f"source {i} sent to both {table[i]} and {j}"
                )
            table[i] = j
        try:
            return PInjMorphism(self.src, self.dst, tuple(table))
        except DimensionMismatch as exc:
            raise IncompatibleJoin(str(exc)) from exc

    def isclose(self, other: "PInjMorphism", tolerance: float = 0.0) -> bool:
        """Exact equality: partial injections have no rounding to tolerate."""
        return self == other

    def block(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "PInjMorphism":
        """Sub-map on index ranges [row_lo, row_hi) x [col_lo, col_hi)."""
        table = tuple(
            j - col_lo if j is not None and col_lo <= j < col_hi else None
            for j in self.table[row_lo:row_hi]
        )
        return PInjMorphism(FinObject(row_hi - row_lo), FinObject(col_hi - col_lo), table)

    def block_sum(self, other: "PInjMorphism") -> "PInjMorphism":
        """self (+) other: self on the leading blocks, other on the trailing ones."""
        shift = self.dst.size
        table = self.table + tuple(None if j is None else shift + j for j in other.table)
        return PInjMorphism(
            FinObject(self.src.size + other.src.size),
            FinObject(self.dst.size + other.dst.size),
            table,
        )

    def to_rel(self) -> RelMorphism:
        return RelMorphism.from_pairs(self.src, self.dst, self.mapping.items())

    def _same_hom(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{self!r} and {other!r} live in different hom-sets")

    def __repr__(self):
        return f"PInj({self.src.size}->{self.dst.size}, {self.mapping})"


def enumerate_pinj(src: FinObject, dst: FinObject, cap: int = 9) -> list[PInjMorphism]:
    if src.size * dst.size > cap:
        raise TooLarge("partial injection enumeration exceeds the cap")
    out = []
    for k in range(min(src.size, dst.size) + 1):
        for sources in combinations(range(src.size), k):
            for targets in permutations(range(dst.size), k):
                table: list[Optional[int]] = [None] * src.size
                for i, j in zip(sources, targets):
                    table[i] = j
                out.append(PInjMorphism(src, dst, tuple(table)))
    return out
