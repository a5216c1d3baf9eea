"""Endofunctor descriptors usable in natural-family checks.

Only two shapes are provided: the identity functor, and disjoint union
with a fixed object (acting on morphisms as block sum with an identity).
Both commute with the dagger on rel and pinj.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..cat import FinObject, dagger, identity
from ..report import Checker, LawReport
from .spaces import HomSpace


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DisjointUnionWith:
    extra: FinObject

    def apply_obj(self, obj: FinObject) -> FinObject:
        return FinObject(obj.size + self.extra.size)

    def apply_mor(self, f):
        return pad_with_identity(f, self.extra)

    def __repr__(self):
        return f"(- + {self.extra.size})"


def check_dagger_functor(functor, category: str, sizes=(0, 1, 2), cap: int = 9) -> LawReport:
    """F(f+) = F(f)+ over every enumerated test morphism."""
    checker = Checker("dagger-functor")
    for x in sizes:
        for y in sizes:
            space = HomSpace(category, FinObject(x), FinObject(y))
            for f in space.morphisms(cap):
                checker.check(
                    "functor-preserves-dagger",
                    functor.apply_mor(dagger(f)) == dagger(functor.apply_mor(f)),
                    lambda f=f: f"F={functor!r} f={f!r}",
                )
    return checker.done()
