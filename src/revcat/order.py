"""The Kleene fixed-point engine over one hom-set.

A ``HomDomain`` holds what the engine reads while it iterates inside one
hom-set: its two objects, the least element, the membership test each
iterate must pass, and a metric where there is one.  The order, suprema and
enumeration of a hom-set are its morphism class's own ``leq``, ``sup`` and
``homs``.  Continuity of the step functions handed to
``kleene_fix``/``kleene_pfix`` is a caller obligation that the engine does
not check.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import DomainMismatch, InvalidArgument, NonConvergence


@dataclass(frozen=True)
class HomDomain:
    """The least element of a hom-set, membership in it and its metric."""

    objects: tuple[Any, Any]
    bottom: Any
    contains: Callable[[Any], bool]
    metric: Optional[Callable[[Any, Any], float]] = None


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
            raise InvalidArgument("max_iterations must be at least 1")
        if not (self.tolerance >= 0 and math.isfinite(self.tolerance)):
            raise InvalidArgument("tolerance must be finite and nonnegative")


@dataclass(frozen=True)
class KleeneResult:
    value: Any
    iterations: int
    converged: bool
    residual: Optional[float] = None


def _iterate(step1, domain: HomDomain, policy: FixPolicy) -> KleeneResult:
    if policy.mode is FixMode.METRIC and domain.metric is None:
        raise InvalidArgument("metric-convergence mode needs a domain metric")
    current = domain.bottom
    iterations = 0
    for _ in range(policy.max_iterations):
        nxt = step1(current)
        iterations += 1
        if not domain.contains(nxt):
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
