"""Feedback trace on rel and pinj as a least fixed point.

For f: X + U -> Y + U (blocks declared by size, X first), the trace is

    Tr(f) = f_XY  v  g . f_XU,   g = lfp(g |-> f_UY v g . f_UU)

where the exit map g, the join over n of f_UY . f_UU^n, sends each point of
U to where its walk through f_UU leaves U.  g need not be injective (two
points of one orbit exit at the same y), so the Kleene engine computes it
in rel: f goes there by ``to_rel`` and Tr(f) comes back by ``from_rel``,
which validates.  Inputs whose walk never leaves U stay undefined.
"""
from __future__ import annotations

from ..cat import FinObject, compose, dagger, hom_domain
from ..errors import DimensionMismatch
from ..order import kleene_fix
from ..report import Checker, LawReport
from .expr import Host
from .functors import DisjointUnionWith, IdentityFunctor, pad_with_identity
from .naturality import NaturalFamily
from .spaces import HomSpace


def trace(f, x: FinObject, y: FinObject, u: FinObject):
    """Trace out the feedback object u from f: x + u -> y + u."""
    if f.src.size != x.size + u.size or f.dst.size != y.size + u.size:
        raise DimensionMismatch(
            f"blocks ({x.size}+{u.size}, {y.size}+{u.size}) do not fit {f!r}"
        )
    r = f.to_rel()
    xs, ys, us = x.size, y.size, u.size
    f_xy = r.block(0, xs, 0, ys)
    f_xu = r.block(0, xs, ys, ys + us)
    f_uy = r.block(xs, xs + us, 0, ys)
    f_uu = r.block(xs, xs + us, ys, ys + us)
    exit_domain = hom_domain(r.category, f_uy.src, f_uy.dst)
    exits = kleene_fix(lambda g: f_uy.join(g.compose(f_uu)), exit_domain).value
    return type(f).from_rel(f_xy.join(exits.compose(f_xu)))


def trace_family(category: str, u: FinObject) -> NaturalFamily:
    """Tr as a one-argument family Hom(X+U, Y+U) -> Hom(X, Y)."""

    def component(x: FinObject, y: FinObject):
        dom = HomSpace(category, FinObject(x.size + u.size), FinObject(y.size + u.size))
        cod = HomSpace(category, x, y)
        return Host(
            lambda f, x=x, y=y: trace(f, x, y, u),
            dom,
            cod,
            name=f"trace-u{u.size}",
        )

    return NaturalFamily(
        f"trace-u{u.size}", category, DisjointUnionWith(u), IdentityFunctor(), component
    )


def check_dagger_trace(category: str, x_size: int, y_size: int, u_size: int) -> LawReport:
    """Tr(f)+ = Tr(f+) and naturality in X and Y, over every enumerated f."""
    checker = Checker("dagger-trace")
    x, y, u = FinObject(x_size), FinObject(y_size), FinObject(u_size)
    big = HomSpace(
        category, FinObject(x_size + u_size), FinObject(y_size + u_size)
    )

    for f in big.morphisms():
        checker.check(
            "trace-dagger",
            dagger(trace(f, x, y, u)) == trace(dagger(f), y, x, u),
            lambda f=f: f"f={f!r}",
        )

    a_homs = HomSpace(category, x, x).morphisms()
    b_homs = HomSpace(category, y, y).morphisms()
    for f in big.morphisms():
        tr_f = trace(f, x, y, u)
        for a in a_homs:
            mid = compose(f, pad_with_identity(a, u))
            for b in b_homs:
                moved = compose(pad_with_identity(b, u), mid)
                checker.check(
                    "trace-natural",
                    trace(moved, x, y, u) == compose(b, compose(tr_f, a)),
                    lambda f=f, a=a, b=b: f"f={f!r} a={a!r} b={b!r}",
                )
    return checker.done()
