from .dstoch import StochMorphism, random_chain, random_ordered_pair, random_stoch
from .laws import SUITES, LawConfig, law_suite
from .objects import FinObject
from .ops import (
    CATEGORIES,
    DSTOCH,
    PINJ,
    REL,
    bottom,
    compose,
    dagger,
    enumerate_homs,
    hom_domain,
    identity,
    is_hermitian,
    is_unitary,
    join,
    leq,
    sup_chain,
)
from .pinj import PInjMorphism, enumerate_pinj
from .rel import RelMorphism, enumerate_rel
from .serialize import (
    dumps_morphism,
    loads_morphism,
    morphism_from_doc,
    morphism_to_doc,
)

__all__ = [
    "CATEGORIES",
    "DSTOCH",
    "FinObject",
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
    "dumps_morphism",
    "enumerate_homs",
    "enumerate_pinj",
    "enumerate_rel",
    "hom_domain",
    "identity",
    "is_hermitian",
    "is_unitary",
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
