"""Category-generic operations over the three concrete morphism families."""
from __future__ import annotations

from ..errors import DimensionMismatch
from ..order import HomDomain
from .dstoch import DEFAULT_TOLERANCE, StochMorphism
from .objects import FinObject
from .pinj import PInjMorphism
from .rel import RelMorphism

MORPHISM_CLASSES = {cls.category: cls for cls in (RelMorphism, PInjMorphism, StochMorphism)}
CATEGORIES = tuple(MORPHISM_CLASSES)
REL, PINJ, DSTOCH = CATEGORIES


def compose(g, f):
    """g . f (apply f first)."""
    if type(g) is not type(f):
        raise DimensionMismatch("cannot compose across categories")
    return g.compose(f)


def dagger(f):
    return f.dagger()


def leq(f, g) -> bool:
    return f.leq(g)


def join(f, g):
    return f.join(g)


def identity(category: str, obj: FinObject):
    return MORPHISM_CLASSES[category].identity(obj)


def bottom(category: str, src: FinObject, dst: FinObject):
    return MORPHISM_CLASSES[category].bottom(src, dst)


def enumerate_homs(category: str, src: FinObject, dst: FinObject) -> list:
    return MORPHISM_CLASSES[category].homs(src, dst)


def is_hermitian(f) -> bool:
    if f.src != f.dst:
        raise DimensionMismatch("hermitian only makes sense on endomorphisms")
    return f.isclose(f.dagger())


def is_unitary(f) -> bool:
    left = compose(f.dagger(), f)
    right = compose(f, f.dagger())
    id_src = identity(f.category, f.src)
    id_dst = identity(f.category, f.dst)
    return left.isclose(id_src) and right.isclose(id_dst)


def sup_chain(category: str, chain):
    """Supremum of a finite ascending sequence within one hom-set."""
    seq = list(chain)
    if not seq:
        raise ValueError("chain must be non-empty")
    return MORPHISM_CLASSES[category].sup(seq)


def hom_domain(
    category: str,
    src: FinObject,
    dst: FinObject,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HomDomain:
    """Build the pointed order on the hom-set as seen by the fixed-point engine."""
    cls = MORPHISM_CLASSES[category]
    return HomDomain(
        objects=(src, dst),
        bottom=cls.bottom(src, dst),
        leq=lambda a, b: a.leq(b, tolerance),
        sup_chain=lambda chain: sup_chain(category, chain),
        elements=lambda: cls.homs(src, dst),
        metric=cls.distance if cls.has_metric else None,
        contains=lambda m: isinstance(m, cls) and m.src == src and m.dst == dst,
    )
