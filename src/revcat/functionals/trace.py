"""Feedback trace on rel and pinj via the execution formula.

For f: X + U -> Y + U (blocks declared by size, X first), the trace is

    Tr(f) = f_XY  v  join over n of  f_UY . f_UU^n . f_XU

computed as an orbit iteration: accumulate the exits while pushing the
still-inside part through f_UU, stopping when the inside part revisits a
previous value.  Inputs whose orbit cycles inside U without exiting stay
undefined in the result, which is exactly the partial behaviour wanted in
pinj.
"""
from __future__ import annotations


from ..cat import FinObject, compose, dagger, identity, join
from ..errors import DimensionMismatch
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
    xs, ys, us = x.size, y.size, u.size
    f_xy = f.block(0, xs, 0, ys)
    f_xu = f.block(0, xs, ys, ys + us)
    f_uy = f.block(xs, xs + us, 0, ys)
    f_uu = f.block(xs, xs + us, ys, ys + us)

    acc = f_xy
    reach = f_xu
    seen = {reach}
    while True:
        acc = join(acc, compose(f_uy, reach))
        reach = compose(f_uu, reach)
        if reach in seen:
            return acc
        seen.add(reach)


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


def check_dagger_trace(
    category: str,
    x_size: int,
    y_size: int,
    u_size: int,
    cap: int = 9,
    include_naturality: bool = True,
    include_dinaturality: bool = False,
) -> LawReport:
    """Tr(f)+ = Tr(f+) over every enumerated f, plus square checks."""
    checker = Checker("dagger-trace")
    x, y, u = FinObject(x_size), FinObject(y_size), FinObject(u_size)
    big = HomSpace(
        category, FinObject(x_size + u_size), FinObject(y_size + u_size)
    )

    for f in big.morphisms(cap):
        checker.check(
            "trace-dagger",
            dagger(trace(f, x, y, u)) == trace(dagger(f), y, x, u),
            lambda f=f: f"f={f!r}",
        )

    if include_naturality:
        a_homs = HomSpace(category, x, x).morphisms(cap)
        b_homs = HomSpace(category, y, y).morphisms(cap)
        for f in big.morphisms(cap):
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

    if include_dinaturality:
        # Sliding: Tr_U((id_Y + s) . g) = Tr_U'(g . (id_X + s))
        # for g: X + U -> Y + U' and s: U' -> U.
        up = FinObject(max(0, u_size - 1))
        g_space = HomSpace(
            category, FinObject(x_size + u_size), FinObject(y_size + up.size)
        )
        s_space = HomSpace(category, up, u)
        for g in g_space.morphisms(cap):
            for s in s_space.morphisms(cap):
                lhs = trace(compose(identity(category, y).block_sum(s), g), x, y, u)
                rhs = trace(compose(g, identity(category, x).block_sum(s)), x, y, up)
                checker.check(
                    "trace-sliding",
                    lhs == rhs,
                    lambda g=g, s=s: f"g={g!r} s={s!r}",
                )
    return checker.done()

