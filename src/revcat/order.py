"""Pointed partial orders over hom-sets and the Kleene fixed-point engine.

A ``HomDomain`` packages everything the engine needs to iterate inside one
hom-set: the least element, the order, suprema of ascending chains,
enumeration (which may refuse), and a metric where there is one.
Continuity of the step functions handed to ``kleene_fix``/``kleene_pfix``
is a caller obligation that the engine does not check.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .errors import DomainMismatch, NonConvergence


@dataclass(frozen=True)
class HomDomain:
    """A pointed partial order of morphisms between two fixed objects."""

    objects: tuple[Any, Any]
    bottom: Any
    leq: Callable[[Any, Any], bool]
    sup_chain: Callable[[Sequence[Any]], Any]
    elements: Callable[[], list]
    metric: Optional[Callable[[Any, Any], float]] = None
    contains: Optional[Callable[[Any], bool]] = None


class FixMode(enum.Enum):
    EXACT = "exact-stabilization"
    METRIC = "metric-convergence"


@dataclass(frozen=True)
class FixPolicy:
    max_iterations: int = 10_000
    tolerance: float = 1e-9
    mode: FixMode = FixMode.EXACT

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")


@dataclass(frozen=True)
class KleeneResult:
    value: Any
    iterations: int
    converged: bool
    residual: Optional[float] = None


def _iterate(step1, domain: HomDomain, policy: FixPolicy) -> KleeneResult:
    if policy.mode is FixMode.METRIC and domain.metric is None:
        raise ValueError("metric-convergence mode needs a domain metric")
    current = domain.bottom
    iterations = 0
    for _ in range(policy.max_iterations):
        nxt = step1(current)
        iterations += 1
        if domain.contains is not None and not domain.contains(nxt):
            raise DomainMismatch(
                f"step left the hom-set {domain.objects} after {iterations} iteration(s)"
            )
        if policy.mode is FixMode.EXACT:
            if nxt == current:
                return KleeneResult(nxt, iterations, True)
        else:
            dist = domain.metric(current, nxt)
            if dist < policy.tolerance:
                return KleeneResult(nxt, iterations, True, dist)
        current = nxt
    raise NonConvergence(
        f"no fixed point within {policy.max_iterations} iterations",
        iterations=iterations,
        last=current,
    )


def kleene_fix(step, domain: HomDomain, policy: FixPolicy = FixPolicy()) -> KleeneResult:
    """Least fixed point of ``step`` as the limit of step^n(bottom)."""
    return _iterate(step, domain, policy)


def kleene_pfix(
    step2,
    parameter,
    domain: HomDomain,
    policy: FixPolicy = FixPolicy(),
) -> KleeneResult:
    """Least x with x = step2(x, parameter), iterating from bottom."""
    return _iterate(lambda x: step2(x, parameter), domain, policy)
