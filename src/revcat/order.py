"""The Kleene fixed-point engine over one hom-set.

The engine iterates inside a ``revcat.cat.HomSpace``: it starts at the
space's ``bottom`` and checks each iterate with its ``contains``.  How the
chain stops is the space's own rule: where the space has a ``metric`` (its
morphism class's ``distance``), at the first step that moves at most the
policy's tolerance; elsewhere, at the first step that changes nothing.  So
a tolerance of 0 asks a metric space for exact stabilization too.  The
order, suprema and enumeration of a hom-set are its morphism class's own
``leq``, ``sup`` and ``homs``.  Continuity of the step functions handed to
``kleene_fix``/``kleene_pfix`` is a caller obligation that the engine does
not check.
"""
from __future__ import annotations

import math
from typing import Any, Optional

from .cat.dstoch import DEFAULT_TOLERANCE
from .cat.ops import HomSpace
from .errors import DomainMismatch, InvalidArgument, NonConvergence
from .record import frozen


@frozen
class FixPolicy:
    max_iterations: int = 10_000
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidArgument("max_iterations must be at least 1")
        if not (self.tolerance >= 0 and math.isfinite(self.tolerance)):
            raise InvalidArgument("tolerance must be finite and nonnegative")


@frozen
class KleeneResult:
    value: Any
    iterations: int
    residual: Optional[float] = None


_DEFAULT = FixPolicy()


def _iterate(step1, space: HomSpace, policy: Optional[FixPolicy]) -> KleeneResult:
    policy = policy or _DEFAULT
    metric = space.metric
    current = space.bottom
    for iterations in range(1, policy.max_iterations + 1):
        nxt = step1(current)
        if not space.contains(nxt):
            raise DomainMismatch(f"step left the hom-set {space!r} after {iterations} iteration(s)")
        if metric is None:
            if nxt == current:
                return KleeneResult(nxt, iterations, None)
        else:
            dist = metric(current, nxt)
            if dist <= policy.tolerance:
                return KleeneResult(nxt, iterations, dist)
        current = nxt
    raise NonConvergence(f"no fixed point within {policy.max_iterations} iterations")


def kleene_fix(step, space: HomSpace, policy: Optional[FixPolicy] = None) -> KleeneResult:
    """Least fixed point of ``step`` as the limit of step^n(bottom), reached
    by ``space``'s stopping rule (see the module docstring) within
    ``policy``'s iterations; without a ``policy``, ``FixPolicy()``."""
    return _iterate(step, space, policy)


def kleene_pfix(
    step2,
    parameter,
    space: HomSpace,
    policy: Optional[FixPolicy] = None,
) -> KleeneResult:
    """Least x with x = step2(x, parameter), iterating from bottom."""
    return _iterate(lambda x: step2(x, parameter), space, policy)
