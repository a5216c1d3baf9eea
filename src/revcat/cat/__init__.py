from .dstoch import StochMorphism, random_chain, random_ordered_pair, random_stoch
from .laws import SUITES, LawConfig, law_suite
from .objects import FinObject
from .ops import (
    CATEGORIES,
    DSTOCH,
    PINJ,
    REL,
    HomSpace,
    bottom,
    compose,
    dagger,
    identity,
    join,
    leq,
    sup_chain,
)
from .pinj import PInjMorphism, enumerate_pinj
from .rel import RelMorphism, enumerate_rel
from .serialize import loads_morphism, morphism_from_doc, morphism_to_doc

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
    "bottom",
    "compose",
    "dagger",
    "enumerate_pinj",
    "enumerate_rel",
    "identity",
    "join",
    "law_suite",
    "leq",
    "loads_morphism",
    "morphism_from_doc",
    "morphism_to_doc",
    "random_chain",
    "random_ordered_pair",
    "random_stoch",
    "sup_chain",
]
