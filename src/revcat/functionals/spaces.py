"""Hom-space descriptors: (category, source, target) triples.

Functional expressions carry these so that conjugation and the fixed-point
engine know which pointed order they act on.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..cat import FinObject, bottom, enumerate_homs, hom_domain
from ..order import HomDomain


@dataclass(frozen=True)
class HomSpace:
    category: str
    src: FinObject
    dst: FinObject

    def flipped(self) -> "HomSpace":
        return HomSpace(self.category, self.dst, self.src)

    def bottom(self):
        return bottom(self.category, self.src, self.dst)

    def domain(self, tolerance: float = 1e-9) -> HomDomain:
        return hom_domain(self.category, self.src, self.dst, tolerance=tolerance)

    def morphisms(self) -> list:
        return enumerate_homs(self.category, self.src, self.dst)

    def __repr__(self):
        return f"{self.category}({self.src.size}->{self.dst.size})"


def space_of(morphism) -> HomSpace:
    return HomSpace(morphism.category, morphism.src, morphism.dst)
