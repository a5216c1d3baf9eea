"""The Kleene fixed-point engine over one hom-set.

The engine iterates inside a ``revcat.cat.HomSpace``: it starts at the
space's ``bottom``, checks each iterate with its ``contains`` and, in metric
mode, measures each step with its ``metric``.  The order, suprema and
enumeration of a hom-set are its morphism class's own ``leq``, ``sup`` and
``homs``.  Continuity of the step functions handed to
``kleene_fix``/``kleene_pfix`` is a caller obligation that the engine does
not check.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Optional

from .cat import HomSpace
from .errors import DomainMismatch, InvalidArgument, NonConvergence


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


# The policies used where a caller gives none.
_EXACT, _METRIC = FixPolicy(), FixPolicy(mode=FixMode.METRIC)


def _iterate(step1, space: HomSpace, policy: Optional[FixPolicy]) -> KleeneResult:
    if policy is None:
        policy = _EXACT if space.metric is None else _METRIC
    elif policy.mode is FixMode.METRIC and space.metric is None:
        raise InvalidArgument("metric-convergence mode needs a domain metric")
    current = space.bottom
    iterations = 0
    for _ in range(policy.max_iterations):
        nxt = step1(current)
        iterations += 1
        if not space.contains(nxt):
            raise DomainMismatch(f"step left the hom-set {space!r} after {iterations} iteration(s)")
        if policy.mode is FixMode.EXACT:
            if nxt == current:
                return KleeneResult(nxt, iterations, True)
        else:
            dist = space.metric(current, nxt)
            if dist < policy.tolerance:
                return KleeneResult(nxt, iterations, True, dist)
        current = nxt
    raise NonConvergence(
        f"no fixed point within {policy.max_iterations} iterations",
        iterations=iterations,
        last=current,
    )


def kleene_fix(step, space: HomSpace, policy: Optional[FixPolicy] = None) -> KleeneResult:
    """Least fixed point of ``step`` as the limit of step^n(bottom).

    Without a ``policy``, iteration runs to metric convergence where
    ``space`` has a metric, and to exact stabilization otherwise."""
    return _iterate(step, space, policy)


def kleene_pfix(
    step2,
    parameter,
    space: HomSpace,
    policy: Optional[FixPolicy] = None,
) -> KleeneResult:
    """Least x with x = step2(x, parameter), iterating from bottom."""
    return _iterate(lambda x: step2(x, parameter), space, policy)
