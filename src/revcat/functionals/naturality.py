"""Indexed families of functionals: naturality squares and self-conjugacy.

A family assigns to each object pair (X, Y) a functional on hom-sets built
from two endofunctor descriptors F and G.  Two shapes occur:

  one-argument:  Hom(FX, FY) -> Hom(GX, GY)
  two-argument:  Hom(FX, FY) x Hom(GX, GY) -> Hom(FX, FY)

Two-argument families can be iterated from bottom, so their squares are
checked for every finite iterate and for the parametrized fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from ..cat import FinObject, bottom, compose, dagger
from ..errors import IncompatibleJoin
from ..order import FixPolicy
from ..report import Checker, LawReport
from .expr import FunctionalExpr, conj
from .fixpoints import pfix_functional
from .functors import IdentityFunctor
from .param import ArgP, ArgX, ParamExpr, PJoin, apply_param, conj_param
from .spaces import HomSpace


@dataclass(frozen=True)
class NaturalFamily:
    name: str
    category: str
    F: object
    G: object
    component: Callable[[FinObject, FinObject], object] = field(compare=False)

    def spaces(self, x: FinObject, y: FinObject) -> tuple[HomSpace, HomSpace]:
        fx, fy = self.F.apply_obj(x), self.F.apply_obj(y)
        gx, gy = self.G.apply_obj(x), self.G.apply_obj(y)
        return (
            HomSpace(self.category, fx, fy),
            HomSpace(self.category, gx, gy),
        )


def join_family(category: str, functor=None) -> NaturalFamily:
    """alpha(h, p) = h v p, with F = G."""
    functor = functor or IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> ParamExpr:
        arg_space = HomSpace(category, functor.apply_obj(x), functor.apply_obj(y))
        return PJoin(ArgX(arg_space, arg_space), ArgP(arg_space, arg_space))

    return NaturalFamily("join", category, functor, functor, component)


def projection_family(category: str, functor=None) -> NaturalFamily:
    """alpha(h, p) = p, with F = G."""
    functor = functor or IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> ParamExpr:
        arg_space = HomSpace(category, functor.apply_obj(x), functor.apply_obj(y))
        return ArgP(arg_space, arg_space)

    return NaturalFamily("projection", category, functor, functor, component)


def identity_family(category: str) -> NaturalFamily:
    """One-argument alpha(f) = f."""
    from .expr import IdentityFn

    ident = IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> FunctionalExpr:
        return IdentityFn(HomSpace(category, x, y))

    return NaturalFamily("identity", category, ident, ident, component)


def _transport(v, m, u):
    """v . m . u for morphisms u into m's source and v out of m's target."""
    return compose(v, compose(m, u))


def check_naturality(
    family: NaturalFamily,
    x: FinObject,
    xp: FinObject,
    y: FinObject,
    yp: FinObject,
    fuel: int = 10,
    policy: Optional[FixPolicy] = None,
) -> LawReport:
    """Naturality squares from component (x, y) to component (xp, yp).

    Transport runs along u: xp -> x and v: y -> yp.  Checks the square for
    the family itself, for every iterate-from-bottom up to ``fuel``, and
    for the parametrized fixed point.
    """
    checker = Checker("naturality")
    alpha = family.component(x, y)
    alpha_p = family.component(xp, yp)
    arg1, par1 = family.spaces(x, y)
    F, G = family.F, family.G

    u_homs = HomSpace(family.category, xp, x).morphisms()
    v_homs = HomSpace(family.category, y, yp).morphisms()
    h_homs = arg1.morphisms()
    p_homs = par1.morphisms()
    bot1 = arg1.bottom()
    bot2 = bottom(family.category, F.apply_obj(xp), F.apply_obj(yp))

    for u in u_homs:
        fu, gu = F.apply_mor(u), G.apply_mor(u)
        for v in v_homs:
            fv, gv = F.apply_mor(v), G.apply_mor(v)
            for p in p_homs:
                p_t = _transport(gv, p, gu)

                for h in h_homs:
                    try:
                        lhs = apply_param(alpha_p, _transport(fv, h, fu), p_t)
                        rhs = _transport(fv, apply_param(alpha, h, p), fu)
                    except IncompatibleJoin:
                        checker.skip("family-square")
                        continue
                    checker.check(
                        "family-square",
                        lhs == rhs,
                        lambda u=u, v=v, h=h, p=p: f"u={u!r} v={v!r} h={h!r} p={p!r}",
                    )

                a, b = bot1, bot2
                ok = True
                try:
                    for n in range(1, fuel + 1):
                        a = apply_param(alpha, a, p)
                        b = apply_param(alpha_p, b, p_t)
                        checker.check(
                            "iterate-square",
                            b == _transport(fv, a, fu),
                            lambda u=u, v=v, p=p, n=n: f"n={n} u={u!r} v={v!r} p={p!r}",
                        )
                except IncompatibleJoin:
                    checker.skip("iterate-square")
                    ok = False

                if ok:
                    try:
                        lhs = pfix_functional(alpha_p, p_t, policy)
                        rhs = _transport(fv, pfix_functional(alpha, p, policy), fu)
                    except IncompatibleJoin:
                        checker.skip("pfix-square")
                        continue
                    checker.check(
                        "pfix-square",
                        lhs == rhs,
                        lambda u=u, v=v, p=p: f"u={u!r} v={v!r} p={p!r}",
                    )
    return checker.done()


def check_self_conjugate(
    family: NaturalFamily,
    x: FinObject,
    y: FinObject,
    tolerance: float = 1e-9,
) -> LawReport:
    """alpha_{X,Y}(f)+ = alpha_{Y,X}(f+), and the conjugate formulation
    alpha_{X,Y} = conj(alpha_{Y,X}); the two must agree instance by instance.

    A two-argument family is checked on every (h, p), a one-argument one on
    every f; conjugation daggers each argument."""
    checker = Checker("self-conjugate")
    a_xy = family.component(x, y)
    a_yx = family.component(y, x)
    if isinstance(a_xy, ParamExpr):
        names, spaces, conj_yx = ("h", "p"), family.spaces(x, y), conj_param(a_yx)
    else:
        names, spaces, conj_yx = ("f",), (a_xy.dom,), conj(a_yx)

    for args in product(*(space.morphisms() for space in spaces)):
        try:
            direct = a_xy(*args)
            swapped = a_yx(*map(dagger, args))
            via_conj = conj_yx(*args)
        except IncompatibleJoin:
            checker.skip("dagger-preservation")
            continue
        first = dagger(direct).isclose(swapped, tolerance)
        second = via_conj.isclose(direct, tolerance)
        witness = lambda args=args: " ".join(f"{n}={a!r}" for n, a in zip(names, args))
        checker.check("dagger-preservation", first, witness)
        checker.check("conjugate-formulation", second, witness)
        checker.check("formulations-agree", first == second, witness)
    return checker.done()
