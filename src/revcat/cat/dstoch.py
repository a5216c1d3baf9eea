"""Subnormalized doubly stochastic maps on finite sets of equal size.

A map n -> n is stored as ``rows``: n tuples of n floats, row i holding the
weights from source i to each target.  Entries are nonnegative reals with
every row and column sum at most 1.  Comparisons use a global tolerance; the
hom-sets are uncountable, so law checks over this category are randomized
from an explicit seed.

Values are validated when built through the public constructor and
``from_doc``; the other operations build their results with
``StochMorphism._make``, which skips that check, because a result computed
from valid operands is valid; as in ``rel``, it fills the slots directly.
``sup`` is the exception among them: the entrywise max of a non-chain can
have a line sum above 1, so it checks its operands' hom-set and the sums of
the max, and nothing else.
"""
from __future__ import annotations

from functools import partial, reduce
from itertools import chain, repeat
from math import inf, isfinite
from numbers import Real
from operator import add, le, mul, sub
from random import Random
from typing import ClassVar

from ..errors import DimensionMismatch, ParseError, UnsupportedOperation
from ..record import frozen
from .objects import FinObject, read_nat, require_fields, same_hom, trusted_make

DEFAULT_TOLERANCE = 1e-9

Rows = tuple[tuple[float, ...], ...]


@trusted_make
@frozen
class StochMorphism:
    __slots__ = ("src", "dst", "rows")
    category: ClassVar[str] = "dstoch"
    has_joins: ClassVar[bool] = False
    src: FinObject
    dst: FinObject
    # Given as a list or tuple of src.size rows of as many reals; stored as
    # tuples of floats.
    rows: Rows

    # Written out, not left to ``frozen``: it is the hot ``cat.eq``, and the
    # body, compared first, settles most unequal pairs.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows and self.src is other.src and self.dst is other.dst
        return NotImplemented

    def __post_init__(self):
        if self.src.size != self.dst.size:
            raise DimensionMismatch("doubly stochastic maps need equal sizes")
        rows = _parse_rows(self.rows, self.src.size)
        _validate(rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def bottom(cls, src: FinObject, dst: FinObject) -> "StochMorphism":
        return cls._make(src, dst, ((0.0,) * dst.size,) * src.size)

    @classmethod
    def identity(cls, obj: FinObject) -> "StochMorphism":
        n = obj.size
        return cls._make(obj, obj, tuple(tuple(float(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def homs(cls, src: FinObject, dst: FinObject):
        raise UnsupportedOperation("cannot enumerate dstoch hom-sets")

    @classmethod
    def sup(cls, chain: list["StochMorphism"]) -> "StochMorphism":
        """Entrywise max of maps in one hom-set, whose sums are checked: the
        max of a non-chain can leave the category."""
        first = chain[0]
        for m in chain:
            same_hom(first, m)
        rows = tuple([tuple(map(max, zip(*row_i))) for row_i in zip(*(m.rows for m in chain))])
        _validate(rows)
        return cls._make(first.src, first.dst, rows)

    def to_rel(self):
        raise UnsupportedOperation("the trace exists for rel and pinj only")

    @classmethod
    def from_doc(cls, doc: dict) -> "StochMorphism":
        require_fields(doc, {"type", "n", "rows"})
        n = read_nat(doc["n"], "n")
        return cls(FinObject(n), FinObject(n), doc["rows"])

    def to_doc(self) -> dict:
        return {"type": self.category, "n": self.src.size, "rows": [list(r) for r in self.rows]}

    def compose(self, other: "StochMorphism") -> "StochMorphism":
        """self . other, i.e. run ``other`` first (rows index sources)."""
        if other.dst is not self.src:
            raise DimensionMismatch(f"cannot compose {self!r} after {other!r}")
        cols = tuple(zip(*self.rows))
        return StochMorphism._make(
            other.src,
            self.dst,
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in other.rows]),
        )

    def dagger(self) -> "StochMorphism":
        return StochMorphism._make(self.dst, self.src, tuple(zip(*self.rows)))

    def leq(self, other: "StochMorphism", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        same_hom(self, other)
        bounds = map(add, _entries(other.rows), repeat(tolerance))
        return all(map(le, _entries(self.rows), bounds))

    def join(self, other):
        raise UnsupportedOperation("binary joins are not provided for dstoch")

    def isclose(self, other: "StochMorphism", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.distance(other) <= tolerance

    def block_sum(self, other):
        raise UnsupportedOperation("block sums exist for rel and pinj only")

    def distance(self, other: "StochMorphism") -> float:
        """Largest entrywise difference; 0.0 between maps on the empty set."""
        same_hom(self, other)
        return max(map(abs, map(sub, _entries(self.rows), _entries(other.rows))), default=0.0)

    def __repr__(self):
        return f"DStoch({self.src.size}, {[list(r) for r in self.rows]})"


# The entries of a matrix, row by row.
_entries = chain.from_iterable


def read_entry(x, field: str = "rows") -> float:
    """A matrix entry, or a scalar read from ``field``, as a float: any real
    but a bool, refused unless finite."""
    if type(x) is float:
        value = x
    elif isinstance(x, bool) or not isinstance(x, Real):
        raise ParseError(f"expected a number in {field!r}, got {x!r}")
    else:
        try:
            value = float(x)
        except OverflowError:
            value = inf
    if not isfinite(value):
        raise DimensionMismatch(f"expected a finite number in {field!r}, got {x!r}")
    return value


def _parse_rows(rows, n: int) -> Rows:
    """``rows`` as n tuples of n floats; anything but an n x n matrix is refused."""
    if not (
        isinstance(rows, (list, tuple))
        and len(rows) == n
        and all(isinstance(row, (list, tuple)) and len(row) == n for row in rows)
    ):
        raise DimensionMismatch(f"a stochastic matrix on {n} elements needs {n} rows of {n} entries")
    return tuple([tuple(map(read_entry, row)) for row in rows])


# The sum of a nonempty line, from the left whatever the Python version
# (``sum`` compensates rounding from 3.12), so generated matrices do not
# depend on the version.
_total = partial(reduce, add)


def _validate(rows: Rows, tolerance: float = DEFAULT_TOLERANCE) -> None:
    if any(x < -tolerance for x in _entries(rows)):
        raise DimensionMismatch("negative entry in stochastic matrix")
    if any(_total(line) > 1 + tolerance for line in (*rows, *zip(*rows))):
        raise DimensionMismatch("row or column sum exceeds 1")


def _scaled(rows, factor: float) -> Rows:
    return tuple([tuple(map(factor.__mul__, row)) for row in rows])


def random_stoch(obj: FinObject, rng: Random) -> StochMorphism:
    """Draw a subnormalized doubly stochastic matrix, seeded via ``rng``.

    Uniform entries are scaled so the largest row or column sum becomes a
    uniform draw in [0, 1).
    """
    n = obj.size
    if n == 0:
        return StochMorphism._make(obj, obj, ())
    draw = rng.random
    m = [[draw() for _ in range(n)] for _ in range(n)]
    bound = max(map(_total, (*m, *zip(*m))))
    scale = draw()
    return StochMorphism._make(obj, obj, _scaled(m, scale / bound))


def random_ordered_pair(obj: FinObject, rng: Random) -> tuple[StochMorphism, StochMorphism]:
    """Draw f <= g entrywise by damping g with factors in [0, 1]."""
    g = random_stoch(obj, rng)
    n = obj.size
    damp = [[rng.random() for _ in range(n)] for _ in range(n)]
    f = StochMorphism._make(obj, obj, tuple([tuple(map(mul, row, by)) for row, by in zip(g.rows, damp)]))
    return f, g


def random_chain(obj: FinObject, rng: Random, length: int) -> list[StochMorphism]:
    """Ascending chain rising towards a random target matrix."""
    target = random_stoch(obj, rng)
    return [
        StochMorphism._make(obj, obj, _scaled(target.rows, 1 - 0.5 ** k))
        for k in range(length)
    ]
