"""Finite objects, each a size, and what the three morphism classes share:
document readers, the hom-set check, ``_make``, which shares the rel and
pinj values of every listable hom-set, and ``Shared``, the base of rel and
pinj.

Objects are interned by ``record.interned``: ``FinObject(n)`` is the one
object of size ``n`` in the process, so objects compare and hash by
identity, every object check is one ``is``, a copy or an unpickled object is
the original, and objects are immutable: a ``size`` cannot be assigned or
deleted.  A size is refused unless it is an int (not a bool) and
nonnegative."""
from __future__ import annotations

from functools import reduce
from typing import ClassVar

from ..errors import DimensionMismatch, InvalidArgument, ParseError
from ..record import interned

# The most cells (source size x target size) a hom-set of rel or pinj may
# have for ``enumerate_rel``/``enumerate_pinj`` to list it: 2**9 relations.
ENUMERATION_CAP = 9
# The largest object size, or index, that an input may name.  The costliest
# step on objects of this size, a dstoch compose (cubic in the size), takes
# about 50 ms, and one affine step (quadratic) about 4 ms; at twice the
# size a compose takes eight times as long.
MAX_SIZE = 128


@interned
class FinObject:
    __slots__ = ("size",)
    size: int

    @staticmethod
    def _check(size) -> None:
        # Run before the lookup: 2.0, True, Fraction(2) and Decimal(2) hash as 2.
        if type(size) is not int:
            raise InvalidArgument(f"object size must be an int, got {size!r}")
        if size < 0:
            raise InvalidArgument(f"object size must be nonnegative, got {size}")

    def __repr__(self):
        return f"FinObject({self.size})"


def require_fields(doc: dict, fields: set[str]) -> None:
    extra = set(doc) - fields
    if extra:
        raise ParseError(f"unknown morphism fields: {sorted(extra)}")
    missing = fields - set(doc)
    if missing:
        raise ParseError(f"missing morphism fields: {sorted(missing)}")


def read_nat(value, field: str) -> int:
    """A size or index read from an input: an integer from 0 to ``MAX_SIZE``,
    not a bool."""
    if type(value) is not int or value < 0:
        raise ParseError(f"expected an integer >= 0 in {field!r}, got {value!r}")
    if value > MAX_SIZE:
        raise ParseError(f"{field!r} is {value}, past the bound on object sizes MAX_SIZE = {MAX_SIZE}")
    return value


def same_hom(f, g) -> None:
    """Refuse ``g`` unless it lies in ``f``'s hom-set."""
    if f.src is not g.src or f.dst is not g.dst:
        raise DimensionMismatch(f"{f!r} and {g!r} live in different hom-sets")


class Shared:
    """The base of rel and pinj: the members they state alike, and slots for
    what a value's body alone fixes, unset until first use.  Every value,
    shared or not, keeps its converse in ``_converse`` from its first
    ``dagger``; a relation keeps in ``_table`` the subset-join table that its
    first ``compose`` as the left operand chooses.  Sharing only decides how
    often a value, and so its memos, is met again."""
    __slots__ = ("_converse", "_table")
    has_joins: ClassVar[bool] = True

    @classmethod
    def sup(cls, chain: list) -> "Shared":
        return reduce(cls.join, chain)

    def isclose(self, other: "Shared", tolerance: float = 0.0) -> bool:
        """Exact equality: relations and partial injections have no rounding
        to tolerate."""
        return self == other


# Write a memo past its value's frozen ``__setattr__``.  A memo is computed
# from its own value and written on it alone, never on another value: a
# converse finds a shared original through ``_make`` on its own first
# ``dagger``.
keep_converse, keep_table = Shared._converse.__set__, Shared._table.__set__


def trusted_make(cls):
    """Give the frozen value class ``cls``, slotted over the fields
    ``(src, dst, body)``, its ``_make(src, dst, body)``: a value built
    without validation, only for bodies valid by construction.  It sets the
    fields through the class's own slot descriptors, bound here once, which
    write past the frozen ``__setattr__``.

    A class derived from ``Shared`` gets a ``_make`` that shares values: in
    a hom-set that ``HomSpace.morphisms()`` may list (at most
    ``ENUMERATION_CAP`` cells), it returns the one object per ``(src, dst,
    body)``, kept in ``cls._shared``.  Past that bound it builds a fresh
    value, as it does for every other class.  Shared or fresh, a new value
    holds no memo.  The public constructors, ``copy`` and ``pickle`` build
    fresh values, and values still compare by value: identity is not
    equality."""
    new = object.__new__
    set_src, set_dst, set_body = (vars(cls)[name].__set__ for name in cls._fields)

    def fresh(src: FinObject, dst: FinObject, body):
        self = new(cls)
        set_src(self, src)
        set_dst(self, dst)
        set_body(self, body)
        return self

    if not issubclass(cls, Shared):
        cls._make = staticmethod(fresh)
        return cls
    shared = cls._shared = {}
    find, publish = shared.get, shared.setdefault

    def _make(src: FinObject, dst: FinObject, body):
        if src.size * dst.size > ENUMERATION_CAP:
            return fresh(src, dst, body)
        key = (src, dst, body)
        self = find(key)
        if self is None:
            # Published whole, and once: threads that race here share one object.
            self = publish(key, fresh(src, dst, body))
        return self

    cls._make = staticmethod(_make)
    return cls
