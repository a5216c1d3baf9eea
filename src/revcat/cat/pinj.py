"""Partial injective maps between finite sets.

The assignment table has one slot per source element, holding either the
image index or None.  The refinement order is graph extension; joins exist
only for compatible graphs and otherwise raise IncompatibleJoin.

As in ``rel``, values are validated when built through the public
constructors, and operations whose results are valid by construction build
them with ``PInjMorphism._make``, which fills the slots directly.  ``join``
and ``from_rel`` validate, as a join of compatible graphs can be
non-injective.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from typing import ClassVar, Optional

from ..errors import DimensionMismatch, IncompatibleJoin, ParseError, TooLarge
from .objects import ENUMERATION_CAP, FinObject, read_nat, require_fields, same_hom, trusted_make
from .rel import RelMorphism


@trusted_make
@dataclass(frozen=True, slots=True)
class PInjMorphism:
    category: ClassVar[str] = "pinj"
    has_joins: ClassVar[bool] = True
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
        return cls._make(src, dst, (None,) * src.size)

    @classmethod
    def identity(cls, obj: FinObject) -> "PInjMorphism":
        return cls._make(obj, obj, tuple(range(obj.size)))

    @classmethod
    def homs(cls, src: FinObject, dst: FinObject) -> list["PInjMorphism"]:
        return enumerate_pinj(src, dst)

    @classmethod
    def sup(cls, chain: list["PInjMorphism"]) -> "PInjMorphism":
        return reduce(cls.join, chain)

    @classmethod
    def from_rel(cls, r: RelMorphism) -> "PInjMorphism":
        """The partial injection whose graph is ``r``; refuses any other relation."""
        if any(row & (row - 1) for row in r.rows):
            raise DimensionMismatch(f"{r!r} is not a partial map")
        return cls(r.src, r.dst, tuple(row.bit_length() - 1 if row else None for row in r.rows))

    @classmethod
    def from_doc(cls, doc: dict) -> "PInjMorphism":
        require_fields(doc, {"type", "src", "dst", "map"})
        mapping = doc["map"]
        if not isinstance(mapping, dict):
            raise ParseError(f"expected an object in 'map', got {mapping!r}")
        return cls.from_map(
            FinObject(read_nat(doc["src"], "src")),
            FinObject(read_nat(doc["dst"], "dst")),
            {_source_key(k): read_nat(v, "map") for k, v in mapping.items()},
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
        if other.dst is not self.src and other.dst != self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        table = tuple(
            self.table[j] if j is not None else None for j in other.table
        )
        return PInjMorphism._make(other.src, self.dst, table)

    def dagger(self) -> "PInjMorphism":
        table: list[Optional[int]] = [None] * self.dst.size
        for i, j in enumerate(self.table):
            if j is not None:
                table[j] = i
        return PInjMorphism._make(self.dst, self.src, tuple(table))

    def leq(self, other: "PInjMorphism", tolerance: float = 0.0) -> bool:
        same_hom(self, other)
        return all(
            j is None or other.table[i] == j for i, j in enumerate(self.table)
        )

    def join(self, other: "PInjMorphism") -> "PInjMorphism":
        same_hom(self, other)
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

    def block_sum(self, other: "PInjMorphism") -> "PInjMorphism":
        """self (+) other: self on the leading blocks, other on the trailing ones."""
        shift = self.dst.size
        table = self.table + tuple(None if j is None else shift + j for j in other.table)
        return PInjMorphism._make(
            FinObject(self.src.size + other.src.size),
            FinObject(self.dst.size + other.dst.size),
            table,
        )

    def to_rel(self) -> RelMorphism:
        return RelMorphism.from_pairs(self.src, self.dst, self.mapping.items())

    def __repr__(self):
        return f"PInj({self.src.size}->{self.dst.size}, {self.mapping})"


def _source_key(key) -> int:
    """A key of a document's map: an integer >= 0 in plain decimal, such as "10"."""
    if not (isinstance(key, str) and key.isdecimal() and str(int(key)) == key):
        raise ParseError(f"expected a key in 'map' written as an integer >= 0, got {key!r}")
    return int(key)


def enumerate_pinj(src: FinObject, dst: FinObject, cap: int = ENUMERATION_CAP) -> list[PInjMorphism]:
    if src.size * dst.size > cap:
        raise TooLarge("partial injection enumeration exceeds the cap")
    out = []
    for k in range(min(src.size, dst.size) + 1):
        for sources in combinations(range(src.size), k):
            for targets in permutations(range(dst.size), k):
                table: list[Optional[int]] = [None] * src.size
                for i, j in zip(sources, targets):
                    table[i] = j
                out.append(PInjMorphism._make(src, dst, tuple(table)))
    return out
