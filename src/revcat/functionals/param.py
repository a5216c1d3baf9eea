"""Two-argument functional expressions: trees over a recursion argument
and a parameter argument.

A node denotes a continuous map Hom(X,Y) x Hom(P,Q) -> Hom(A,B).  Unary
behaviour is borrowed from the one-argument DSL via PApply, so conjugation
is the one-argument DSL's field-by-field rewrite, with sub-expressions of
this DSL conjugated by ``conj_param``.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..cat import join
from ..errors import DimensionMismatch
from .expr import CONJ_RULES, FunctionalExpr, rebuild
from .spaces import HomSpace, space_of


@dataclass(frozen=True)
class ParamExpr:
    """Base class; every node exposes ``arg_space``, ``param_space`` and
    ``cod``, and ``apply(x, p)`` for arguments already checked to lie in
    the first two."""

    def __call__(self, x, p):
        return apply_param(self, x, p)


@dataclass(frozen=True)
class ArgX(ParamExpr):
    arg_space: HomSpace
    param_space: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.arg_space

    def apply(self, x, p):
        return x


@dataclass(frozen=True)
class ArgP(ParamExpr):
    arg_space: HomSpace
    param_space: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.param_space

    def apply(self, x, p):
        return p


@dataclass(frozen=True)
class PConst(ParamExpr):
    value: object
    arg_space: HomSpace
    param_space: HomSpace

    @property
    def cod(self) -> HomSpace:
        return space_of(self.value)

    def apply(self, x, p):
        return self.value


@dataclass(frozen=True)
class PApply(ParamExpr):
    phi: FunctionalExpr
    inner: ParamExpr

    def __post_init__(self):
        if self.phi.dom != self.inner.cod:
            raise DimensionMismatch(
                f"cannot pipe {self.inner.cod!r} into {self.phi.dom!r}"
            )

    @property
    def arg_space(self) -> HomSpace:
        return self.inner.arg_space

    @property
    def param_space(self) -> HomSpace:
        return self.inner.param_space

    @property
    def cod(self) -> HomSpace:
        return self.phi.cod

    def apply(self, x, p):
        return self.phi.apply(self.inner.apply(x, p))


@dataclass(frozen=True)
class PJoin(ParamExpr):
    left: ParamExpr
    right: ParamExpr

    def __post_init__(self):
        if (
            self.left.cod != self.right.cod
            or self.left.arg_space != self.right.arg_space
            or self.left.param_space != self.right.param_space
        ):
            raise DimensionMismatch("joined branches must share all spaces")

    @property
    def arg_space(self) -> HomSpace:
        return self.left.arg_space

    @property
    def param_space(self) -> HomSpace:
        return self.left.param_space

    @property
    def cod(self) -> HomSpace:
        return self.left.cod

    def apply(self, x, p):
        return join(self.left.apply(x, p), self.right.apply(x, p))


def apply_param(psi: ParamExpr, x, p):
    if space_of(x) != psi.arg_space:
        raise DimensionMismatch(f"{x!r} is not in {psi.arg_space!r}")
    if space_of(p) != psi.param_space:
        raise DimensionMismatch(f"{p!r} is not in {psi.param_space!r}")
    return psi.apply(x, p)


# The one-argument rules, and sub-expressions of this DSL go through
# ``conj_param`` by its module-level name.
_CONJ_RULES = {**CONJ_RULES, ParamExpr: lambda psi: conj_param(psi)}


def conj_param(psi: ParamExpr) -> ParamExpr:
    """Conjugate both arguments: extensionally (x, p) |-> psi(x+, p+)+."""
    return rebuild(psi, _CONJ_RULES)
