"""Subnormalized doubly stochastic maps on finite sets of equal size.

Entries are nonnegative reals with every row and column sum at most 1.
Comparisons use a global tolerance; the hom-sets are uncountable, so law
checks over this category are randomized from an explicit seed.
"""
from __future__ import annotations

from random import Random
from typing import ClassVar

import numpy as np

from ..errors import DimensionMismatch, UnsupportedOperation
from .objects import FinObject, require_fields

DEFAULT_TOLERANCE = 1e-9


class StochMorphism:
    __slots__ = ("src", "dst", "matrix")
    category: ClassVar[str] = "dstoch"
    has_joins: ClassVar[bool] = False
    has_metric: ClassVar[bool] = True

    def __init__(self, src: FinObject, dst: FinObject, matrix):
        if src.size != dst.size:
            raise DimensionMismatch("doubly stochastic maps need equal sizes")
        m = np.asarray(matrix, dtype=float).reshape(src.size, dst.size).copy()
        _validate(m)
        m.setflags(write=False)
        self.src = src
        self.dst = dst
        self.matrix = m

    @classmethod
    def bottom(cls, src: FinObject, dst: FinObject) -> "StochMorphism":
        return cls(src, dst, np.zeros((src.size, dst.size)))

    @classmethod
    def identity(cls, obj: FinObject) -> "StochMorphism":
        return cls(obj, obj, np.eye(obj.size))

    @classmethod
    def homs(cls, src: FinObject, dst: FinObject, cap: int = 9):
        raise UnsupportedOperation("cannot enumerate dstoch hom-sets")

    @classmethod
    def sup(cls, chain: list["StochMorphism"]) -> "StochMorphism":
        return cls(chain[0].src, chain[0].dst, np.stack([m.matrix for m in chain]).max(axis=0))

    def to_rel(self):
        raise UnsupportedOperation("the trace exists for rel and pinj only")

    @classmethod
    def from_doc(cls, doc: dict) -> "StochMorphism":
        require_fields(doc, {"type", "n", "rows"})
        n = int(doc["n"])
        return cls(FinObject(n), FinObject(n), doc["rows"])

    def to_doc(self) -> dict:
        return {"type": self.category, "n": self.src.size, "rows": self.matrix.tolist()}

    def compose(self, other: "StochMorphism") -> "StochMorphism":
        """self . other, i.e. run ``other`` first (rows index sources)."""
        if other.dst != self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        return StochMorphism(other.src, self.dst, other.matrix @ self.matrix)

    def dagger(self) -> "StochMorphism":
        return StochMorphism(self.dst, self.src, self.matrix.T)

    def leq(self, other: "StochMorphism", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        self._same_hom(other)
        return bool(np.all(self.matrix <= other.matrix + tolerance))

    def join(self, other):
        raise UnsupportedOperation("binary joins are not provided for dstoch")

    def isclose(self, other: "StochMorphism", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        self._same_hom(other)
        return bool(np.all(np.abs(self.matrix - other.matrix) <= tolerance))

    def block(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int):
        raise UnsupportedOperation("sub-blocks exist for rel and pinj only")

    def block_sum(self, other):
        raise UnsupportedOperation("block sums exist for rel and pinj only")

    def distance(self, other: "StochMorphism") -> float:
        self._same_hom(other)
        return float(np.max(np.abs(self.matrix - other.matrix))) if self.src.size else 0.0

    def _same_hom(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{self!r} and {other!r} live in different hom-sets")

    def __eq__(self, other):
        if not isinstance(other, StochMorphism):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.matrix.tobytes()))

    def __repr__(self):
        return f"DStoch({self.src.size}, {self.matrix.tolist()})"


def _validate(m: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> None:
    if np.any(m < -tolerance):
        raise DimensionMismatch("negative entry in stochastic matrix")
    if m.size and (
        np.any(m.sum(axis=1) > 1 + tolerance) or np.any(m.sum(axis=0) > 1 + tolerance)
    ):
        raise DimensionMismatch("row or column sum exceeds 1")


def random_stoch(obj: FinObject, rng: Random) -> StochMorphism:
    """Draw a subnormalized doubly stochastic matrix, seeded via ``rng``."""
    n = obj.size
    if n == 0:
        return StochMorphism(obj, obj, np.zeros((0, 0)))
    m = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    bound = max(m.sum(axis=1).max(), m.sum(axis=0).max())
    scale = rng.random()
    return StochMorphism(obj, obj, m * (scale / bound))


def random_ordered_pair(obj: FinObject, rng: Random) -> tuple[StochMorphism, StochMorphism]:
    """Draw f <= g entrywise by damping g with factors in [0, 1]."""
    g = random_stoch(obj, rng)
    n = obj.size
    damp = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    f = StochMorphism(obj, obj, g.matrix * damp)
    return f, g


def random_chain(obj: FinObject, rng: Random, length: int) -> list[StochMorphism]:
    """Ascending chain rising towards a random target matrix."""
    target = random_stoch(obj, rng)
    return [
        StochMorphism(obj, obj, target.matrix * (1 - 0.5 ** k))
        for k in range(length)
    ]
