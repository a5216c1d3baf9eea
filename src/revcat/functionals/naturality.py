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
from typing import Callable, Optional

from ..cat import FinObject, bottom, compose, dagger
from ..errors import IncompatibleJoin
from ..order import FixPolicy
from ..report import Checker, LawReport
from .expr import FunctionalExpr, apply_functional, conj
from .fixpoints import morphisms_equal, pfix_functional
from .functors import IdentityFunctor, check_dagger_functor
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

    def check_functors(self, sizes=(0, 1, 2), cap: int = 9) -> LawReport:
        report = check_dagger_functor(self.F, self.category, sizes, cap)
        return report.merge(check_dagger_functor(self.G, self.category, sizes, cap))


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


def postcompose_family(category: str, c) -> NaturalFamily:
    """One-argument alpha(f) = c . f on endo hom-sets; self-conjugate only
    when c is hermitian, so a non-hermitian c witnesses a violation."""
    from .expr import PostCompose

    ident = IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> FunctionalExpr:
        return PostCompose(c, HomSpace(category, x, y))

    return NaturalFamily("postcompose", category, ident, ident, component)


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
    cap: int = 9,
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

    u_homs = HomSpace(family.category, xp, x).morphisms(cap)
    v_homs = HomSpace(family.category, y, yp).morphisms(cap)
    h_homs = arg1.morphisms(cap)
    p_homs = par1.morphisms(cap)
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
                        lhs = pfix_functional(alpha_p, p_t, policy, cap)
                        rhs = _transport(fv, pfix_functional(alpha, p, policy, cap), fu)
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
    cap: int = 9,
    tolerance: float = 1e-9,
) -> LawReport:
    """alpha_{X,Y}(f)+ = alpha_{Y,X}(f+), and the conjugate formulation
    alpha_{X,Y} = conj(alpha_{Y,X}); the two must agree instance by instance."""
    checker = Checker("self-conjugate")
    a_xy = family.component(x, y)
    a_yx = family.component(y, x)
    arg_xy, par_xy = family.spaces(x, y)

    if isinstance(a_xy, ParamExpr):
        conj_yx = conj_param(a_yx)
        for h in arg_xy.morphisms(cap):
            for p in par_xy.morphisms(cap):
                try:
                    direct = apply_param(a_xy, h, p)
                    swapped = apply_param(a_yx, dagger(h), dagger(p))
                    via_conj = apply_param(conj_yx, h, p)
                except IncompatibleJoin:
                    checker.skip("dagger-preservation")
                    continue
                first = morphisms_equal(dagger(direct), swapped, tolerance)
                second = morphisms_equal(via_conj, direct, tolerance)
                checker.check(
                    "dagger-preservation",
                    first,
                    lambda h=h, p=p: f"h={h!r} p={p!r}",
                )
                checker.check(
                    "conjugate-formulation",
                    second,
                    lambda h=h, p=p: f"h={h!r} p={p!r}",
                )
                checker.check(
                    "formulations-agree",
                    first == second,
                    lambda h=h, p=p: f"h={h!r} p={p!r}",
                )
    else:
        conj_yx = conj(a_yx)
        for f in a_xy.dom.morphisms(cap):
            try:
                direct = apply_functional(a_xy, f)
                swapped = apply_functional(a_yx, dagger(f))
                via_conj = apply_functional(conj_yx, f)
            except IncompatibleJoin:
                checker.skip("dagger-preservation")
                continue
            first = morphisms_equal(dagger(direct), swapped, tolerance)
            second = morphisms_equal(via_conj, direct, tolerance)
            checker.check(
                "dagger-preservation", first, lambda f=f: f"f={f!r}"
            )
            checker.check(
                "conjugate-formulation", second, lambda f=f: f"f={f!r}"
            )
            checker.check(
                "formulations-agree", first == second, lambda f=f: f"f={f!r}"
            )
    return checker.done()
