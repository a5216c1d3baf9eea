"""revcat: executable order-enriched dagger categories and a reversible language.

Three concrete categories (finite relations, partial injections, and
subnormalized doubly stochastic maps) carry both a dagger and a pointed
order on every hom-set.  On top of them sit a Kleene fixed-point engine,
a DSL of continuous functionals with conjugation and fixed-point adjoint
checks, a feedback trace, and a small reversible functional language
whose syntactic inverter mirrors conjugation of functionals.
"""

from . import cat, functionals, order, report, revlang
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    IncompatibleJoin,
    NonConvergence,
    ParseError,
    RevcatError,
    TooLarge,
    UnboundParameter,
    UnknownFunction,
    UnsupportedOperation,
)
from .order import FixMode, FixPolicy, KleeneResult, kleene_fix, kleene_pfix
from .report import Checker, LawReport, Violation

__version__ = "0.1.0"

__all__ = [
    "Checker",
    "DimensionMismatch",
    "DomainMismatch",
    "FixMode",
    "FixPolicy",
    "IncompatibleJoin",
    "KleeneResult",
    "LawReport",
    "NonConvergence",
    "ParseError",
    "RevcatError",
    "TooLarge",
    "UnboundParameter",
    "UnknownFunction",
    "UnsupportedOperation",
    "Violation",
    "cat",
    "functionals",
    "kleene_fix",
    "kleene_pfix",
    "order",
    "report",
    "revlang",
]
