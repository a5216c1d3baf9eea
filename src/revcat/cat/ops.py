"""The registry of the three morphism classes by category name,
``HomSpace``, the one type of hom-set (interned and immutable), and
``identity`` by category name.

Composition, dagger and join are each morphism's own methods."""
from __future__ import annotations

from ..errors import InvalidArgument
from ..record import interned
from .dstoch import StochMorphism
from .objects import FinObject
from .pinj import PInjMorphism
from .rel import RelMorphism

MORPHISM_CLASSES = {cls.category: cls for cls in (RelMorphism, PInjMorphism, StochMorphism)}
CATEGORIES = tuple(MORPHISM_CLASSES)
REL, PINJ, DSTOCH = CATEGORIES


@interned
class HomSpace:
    """Hom(src, dst) in one category: the pointed domain in which fixed
    points and their adjoints are taken.

    ``record.interned`` makes one instance per (category, src, dst) per
    process, so spaces compare by identity and a copy is the original, and
    spaces are immutable: the ``bottom`` at which every Kleene chain in the
    space starts cannot be moved.  A space holds what the Kleene engine
    reads (its ``bottom``, ``contains`` and ``metric``: its morphism class's
    ``distance``, or None where the class has none) and lists its morphisms
    once, on first use of ``morphisms``; a hom-set that cannot be listed
    raises again on every call.
    """

    __slots__ = ("category", "src", "dst", "bottom", "metric", "_cls", "_morphisms")
    category: str
    src: FinObject
    dst: FinObject

    def __post_init__(self):
        morphism_cls = MORPHISM_CLASSES.get(self.category)
        if morphism_cls is None:
            raise InvalidArgument(f"unknown category {self.category!r}")
        object.__setattr__(self, "bottom", morphism_cls.bottom(self.src, self.dst))
        object.__setattr__(self, "metric", getattr(morphism_cls, "distance", None))
        object.__setattr__(self, "_cls", morphism_cls)
        object.__setattr__(self, "_morphisms", None)

    def contains(self, m) -> bool:
        return isinstance(m, self._cls) and m.src is self.src and m.dst is self.dst

    def morphisms(self) -> tuple:
        if self._morphisms is None:
            object.__setattr__(self, "_morphisms", tuple(self._cls.homs(self.src, self.dst)))
        return self._morphisms

    def flipped(self) -> "HomSpace":
        return HomSpace(self.category, self.dst, self.src)

    def __repr__(self):
        return f"{self.category}({self.src.size}->{self.dst.size})"


def identity(category: str, obj: FinObject):
    return MORPHISM_CLASSES[category].identity(obj)
