"""Finite relations as bit matrices.

A relation X -> Y is stored as one int per source element, bit j set when
(i, j) is related.  Composition is then boolean matrix product, the
subset order is bitwise implication, and joins are bitwise or.

Values are validated when built through the public constructors; the
operations build their results with ``RelMorphism._make``, which skips that
check, because a result computed from valid operands is valid.  Values have
slots and no ``__dict__``, and ``_make`` (``objects.trusted_make``) fills the
slots directly.

The dagger is the converse, a value fixed by the morphism alone, so every
relation keeps it from its first ``dagger`` (``objects.Shared``).  ``_make``
shares the relations of every listable hom-set (``objects.trusted_make``),
and the converse of a shared relation ``f`` finds ``f`` again through
``_make`` on its own first ``dagger``, so ``f.dagger().dagger() is f``.  On
its first ``compose`` as the left operand, a relation keeps the table that
composing after it reads.  In a listable hom-set with at most
``ENUMERATION_CAP`` sources that is the join of its rows over every subset
of its sources (the Four Russians table for boolean matrix products), and
composing is one lookup per row of the right operand.  Any other relation
keeps an empty table and composes by peeling the lowest set bits of each
right-hand row.
"""
from __future__ import annotations

from itertools import product
from operator import or_
from typing import ClassVar

from ..errors import DimensionMismatch, ParseError, TooLarge
from ..record import frozen
from .objects import (
    ENUMERATION_CAP, FinObject, Shared, keep_converse, keep_table, read_nat, require_fields, same_hom,
    trusted_make,
)

def _transpose(rows: tuple[int, ...], src: FinObject, dst: FinObject) -> "RelMorphism":
    """The converse of the relation ``rows`` from ``src`` to ``dst``: its
    columns, as the rows of a morphism from ``dst`` to ``src``."""
    cols = [0] * dst.size
    for i, row in enumerate(rows):
        j = 0
        while row:
            if row & 1:
                cols[j] |= 1 << i
            row >>= 1
            j += 1
    return RelMorphism._make(dst, src, tuple(cols))


def _subset_joins(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The join of ``rows`` over every subset of their indices: entry ``s``
    is the union of the rows ``i`` with bit ``i`` of ``s`` set."""
    table = [0]
    for row in rows:
        table += [joined | row for joined in table]
    return tuple(table)


@trusted_make
@frozen
class RelMorphism(Shared):
    __slots__ = ("src", "dst", "rows")
    category: ClassVar[str] = "rel"
    src: FinObject
    dst: FinObject
    rows: tuple[int, ...]

    # Written out, not left to ``frozen``: it is the hot ``cat.eq``, and the
    # body, compared first, settles most unequal pairs.
    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.rows == other.rows and self.src is other.src and self.dst is other.dst
        return NotImplemented

    def __post_init__(self):
        if self.src.size != len(self.rows):
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
        if other.dst is not self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        try:
            table = self._table
        except AttributeError:  # the first compose after this relation
            n = self.src.size
            # Hom(n, 0) is listable at every n, and its table would have
            # 2**n entries: past the cap none is built.
            listed = n <= ENUMERATION_CAP and n * self.dst.size <= ENUMERATION_CAP
            table = _subset_joins(self.rows) if listed else ()
            keep_table(self, table)
        if table:
            return RelMorphism._make(other.src, self.dst, tuple([table[row] for row in other.rows]))
        mine = self.rows
        rows = []
        for row in other.rows:
            acc = 0
            while row:
                low = row & -row
                acc |= mine[low.bit_length() - 1]
                row ^= low
            rows.append(acc)
        return RelMorphism._make(other.src, self.dst, tuple(rows))

    def dagger(self) -> "RelMorphism":
        try:
            return self._converse
        except AttributeError:  # the first dagger of this relation
            converse = _transpose(self.rows, self.src, self.dst)
            keep_converse(self, converse)
            return converse

    def leq(self, other: "RelMorphism", tolerance: float = 0.0) -> bool:
        same_hom(self, other)
        return tuple(map(or_, self.rows, other.rows)) == other.rows

    def join(self, other: "RelMorphism") -> "RelMorphism":
        same_hom(self, other)
        return RelMorphism._make(self.src, self.dst, tuple(map(or_, self.rows, other.rows)))

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


def enumerate_rel(src: FinObject, dst: FinObject) -> list[RelMorphism]:
    cells = src.size * dst.size
    if cells > ENUMERATION_CAP:
        raise TooLarge(f"2**{cells} relations exceed the enumeration cap")
    mask = (1 << dst.size) - 1
    row_choices = range(mask + 1)
    return [
        RelMorphism._make(src, dst, rows)
        for rows in product(row_choices, repeat=src.size)
    ]
