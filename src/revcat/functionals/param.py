"""Two-argument functionals: one-argument trees whose Param leaves read the
parameter.

``ParamExpr(body, param_space)`` denotes the continuous map
Hom(X,Y) x Hom(P,Q) -> Hom(A,B), (x, p) |-> body.apply(x, p), where
Hom(X,Y) is ``body.dom`` and every Param leaf returns p.  Conjugation is
the one-argument DSL's ``conj`` of the body, with the parameter space
flipped.
"""
from __future__ import annotations

from ..cat.ops import HomSpace
from ..errors import DimensionMismatch
from ..record import frozen
from .expr import FunctionalExpr, conj, param_leaves
from .spaces import space_of


@frozen
class ParamExpr:
    """``body`` with its Param leaves reading a parameter in ``param_space``.

    The constructor checks once, on an explicit stack, that every Param leaf
    lies in ``param_space``.  ``apply(x, p)`` is the body's own, for
    arguments already checked to lie in ``arg_space`` and ``param_space``.

    Each instance memoizes what it alone determines: its conjugate
    (``conj_param``) and its parametrized fixed point at each parameter met
    (``fixpoints._pfix_of``).  The memo is no field: it neither compares
    nor copies, and it goes when the instance goes."""

    body: FunctionalExpr
    param_space: HomSpace

    def __post_init__(self):
        for leaf in param_leaves(self.body):
            if leaf.cod != self.param_space:
                raise DimensionMismatch(
                    f"a Param leaf in {leaf.cod!r} under parameter space {self.param_space!r}"
                )
        object.__setattr__(self, "_conjugate", None)
        object.__setattr__(self, "fixed_points", {})

    @property
    def arg_space(self) -> HomSpace:
        return self.body.dom

    @property
    def cod(self) -> HomSpace:
        return self.body.cod

    @property
    def apply(self):
        return self.body.apply


def apply_param(psi: ParamExpr, x, p):
    if space_of(x) != psi.arg_space:
        raise DimensionMismatch(f"{x!r} is not in {psi.arg_space!r}")
    if space_of(p) != psi.param_space:
        raise DimensionMismatch(f"{p!r} is not in {psi.param_space!r}")
    return psi.apply(x, p)


def conj_param(psi: ParamExpr) -> ParamExpr:
    """Conjugate both arguments: extensionally (x, p) |-> psi(x+, p+)+.
    Built once per instance of ``psi`` and kept in its memo."""
    conjugate = psi._conjugate
    if conjugate is None:
        conjugate = ParamExpr(conj(psi.body), psi.param_space.flipped())
        object.__setattr__(psi, "_conjugate", conjugate)
    return conjugate
