from .dstoch import StochMorphism, random_chain, random_ordered_pair, random_stoch
from .laws import SUITES, LawConfig, law_suite
from .objects import FinObject
from .ops import (
    CATEGORIES,
    DSTOCH,
    PINJ,
    REL,
    HomSpace,
    compose,
    dagger,
    identity,
    join,
)
from .pinj import PInjMorphism, enumerate_pinj
from .rel import RelMorphism, enumerate_rel
from .serialize import loads_morphism, morphism_from_doc

__all__ = [
    "CATEGORIES",
    "DSTOCH",
    "FinObject",
    "HomSpace",
    "LawConfig",
    "PINJ",
    "PInjMorphism",
    "REL",
    "RelMorphism",
    "StochMorphism",
    "SUITES",
    "compose",
    "dagger",
    "enumerate_pinj",
    "enumerate_rel",
    "identity",
    "join",
    "law_suite",
    "loads_morphism",
    "morphism_from_doc",
    "random_chain",
    "random_ordered_pair",
    "random_stoch",
]
