"""Category-generic operations over the three concrete morphism families,
and ``HomSpace``, the one type of hom-set."""
from __future__ import annotations

from ..errors import DimensionMismatch, InvalidArgument
from .dstoch import StochMorphism
from .objects import FinObject
from .pinj import PInjMorphism
from .rel import RelMorphism

MORPHISM_CLASSES = {cls.category: cls for cls in (RelMorphism, PInjMorphism, StochMorphism)}
CATEGORIES = tuple(MORPHISM_CLASSES)
REL, PINJ, DSTOCH = CATEGORIES


class HomSpace:
    """Hom(src, dst) in one category: the pointed domain in which fixed
    points and their adjoints are taken.

    There is one instance per (category, src, dst) per process, so spaces
    compare by identity.  A space holds what the Kleene engine reads (its
    ``bottom``, ``contains`` and ``metric``: its morphism class's
    ``distance``, or None where the class has none) and lists its
    morphisms once, on first use of ``morphisms``; a hom-set that cannot
    be listed raises again on every call.
    """

    __slots__ = ("category", "src", "dst", "bottom", "metric", "_cls", "_morphisms")
    _interned: dict = {}

    def __new__(cls, category: str, src: FinObject, dst: FinObject) -> "HomSpace":
        key = (category, src, dst)
        space = cls._interned.get(key)
        if space is None:
            morphism_cls = MORPHISM_CLASSES.get(category)
            if morphism_cls is None:
                raise InvalidArgument(f"unknown category {category!r}")
            space = super().__new__(cls)
            space.category, space.src, space.dst = key
            space.bottom = morphism_cls.bottom(src, dst)
            space.metric = getattr(morphism_cls, "distance", None)
            space._cls, space._morphisms = morphism_cls, None
            cls._interned[key] = space
        return space

    def contains(self, m) -> bool:
        return (
            isinstance(m, self._cls)
            and (m.src is self.src or m.src == self.src)
            and (m.dst is self.dst or m.dst == self.dst)
        )

    def morphisms(self) -> tuple:
        if self._morphisms is None:
            self._morphisms = tuple(self._cls.homs(self.src, self.dst))
        return self._morphisms

    def flipped(self) -> "HomSpace":
        return HomSpace(self.category, self.dst, self.src)

    def __repr__(self):
        return f"{self.category}({self.src.size}->{self.dst.size})"


def compose(g, f):
    """g . f (apply f first)."""
    if type(g) is not type(f):
        raise DimensionMismatch("cannot compose across categories")
    return g.compose(f)


def dagger(f):
    return f.dagger()


def join(f, g):
    return f.join(g)


def identity(category: str, obj: FinObject):
    return MORPHISM_CLASSES[category].identity(obj)
