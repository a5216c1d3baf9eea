"""Endofunctor descriptors usable in natural-family checks.

Only two shapes are provided: the identity functor, and disjoint union
with a fixed object (acting on morphisms as block sum with an identity).
Both commute with the dagger on rel and pinj.
"""
from __future__ import annotations

from ..cat.objects import FinObject
from ..cat.ops import identity
from ..record import frozen


@frozen
class IdentityFunctor:
    def apply_obj(self, obj: FinObject) -> FinObject:
        return obj

    def apply_mor(self, f):
        return f

    def __repr__(self):
        return "Id"


def pad_with_identity(f, extra: FinObject):
    """f (+) id_extra: act as f on the leading block, identically on the rest."""
    return f.block_sum(identity(f.category, extra))


@frozen
class DisjointUnionWith:
    extra: FinObject

    def apply_obj(self, obj: FinObject) -> FinObject:
        return FinObject(obj.size + self.extra.size)

    def apply_mor(self, f):
        return pad_with_identity(f, self.extra)

    def __repr__(self):
        return f"(- + {self.extra.size})"
