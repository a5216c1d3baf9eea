"""Indexed families of functionals: naturality squares and self-conjugacy.

A family assigns to each object pair (X, Y) a functional on hom-sets built
from two endofunctor descriptors F and G.  Two shapes occur:

  one-argument:  Hom(FX, FY) -> Hom(GX, GY), a ``FunctionalExpr``
  two-argument:  Hom(FX, FY) x Hom(GX, GY) -> Hom(FX, FY), a ``ParamExpr``
                 whose Param leaves read the second argument

Two-argument families can be iterated from bottom, so their squares are
checked for every finite iterate and for the parametrized fixed point.
"""
from __future__ import annotations

from functools import cache
from itertools import product
from typing import Callable

from ..cat.objects import FinObject
from ..cat.ops import HomSpace
from ..errors import IncompatibleJoin
from ..record import frozen
from ..report import Checker, LawReport
from .expr import FunctionalExpr, IdentityFn, JoinOf, Param, conj
from .fixpoints import _pfix_of
from .functors import IdentityFunctor
from .param import ParamExpr, conj_param


@frozen
class NaturalFamily:
    _uncompared = ("component",)
    name: str
    category: str
    F: object
    G: object
    component: Callable[[FinObject, FinObject], object]


def join_family(category: str, functor=None) -> NaturalFamily:
    """alpha(h, p) = h v p, with F = G."""
    functor = functor or IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> ParamExpr:
        space = HomSpace(category, functor.apply_obj(x), functor.apply_obj(y))
        return ParamExpr(JoinOf(IdentityFn(space), Param(space, space)), space)

    return NaturalFamily("join", category, functor, functor, component)


def projection_family(category: str, functor=None) -> NaturalFamily:
    """alpha(h, p) = p, with F = G."""
    functor = functor or IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> ParamExpr:
        space = HomSpace(category, functor.apply_obj(x), functor.apply_obj(y))
        return ParamExpr(Param(space, space), space)

    return NaturalFamily("projection", category, functor, functor, component)


def identity_family(category: str) -> NaturalFamily:
    """One-argument alpha(f) = f."""
    ident = IdentityFunctor()

    def component(x: FinObject, y: FinObject) -> FunctionalExpr:
        return IdentityFn(HomSpace(category, x, y))

    return NaturalFamily("identity", category, ident, ident, component)


def _transport(v, m, u):
    """v . m . u for morphisms u into m's source and v out of m's target."""
    return v.compose(m.compose(u))


def check_naturality(
    family: NaturalFamily,
    x: FinObject,
    xp: FinObject,
    y: FinObject,
    yp: FinObject,
    fuel: int = 10,
) -> LawReport:
    """Naturality squares from component (x, y) to component (xp, yp).

    Transport runs along u: xp -> x and v: y -> yp.  Checks the square for
    the family itself, for every iterate-from-bottom up to ``fuel``, and
    for the parametrized fixed point.

    Each value is computed once per call, on first use: the transport of
    each h along (u, v), alpha(h, p) and alpha'(h', p') for each pair, and
    pfix(alpha, p) and pfix(alpha', p') for each parameter.  Every value met
    gets an id, its position in the order values are first seen; the
    arguments h_i of alpha come first, so h_i's id is i.  Each component is
    cached in one row per parameter id keyed by argument id, beside the id
    of its parametrized fixed point per parameter id.  The squares then
    compare ids, the iterates alpha^n(bottom, p) and alpha'^n(bottom, p')
    walk the rows, and alpha''s hom-sets are never listed.  A call that
    raises IncompatibleJoin is not cached, so it raises again at each
    instance that needs it, as in the plain loop.

    alpha applies unchecked to arguments enumerated from its own spaces, and
    alpha' to transports, which ``compose`` has type-checked; the same holds
    for their parametrized fixed points, whose spaces are checked once.
    """
    checker = Checker("naturality")
    alpha = family.component(x, y)
    alpha_p = family.component(xp, yp)
    seen: list = []  # every value by id
    ids: dict = {}  # the id of each value seen so far

    def id_of(value) -> int:
        n = len(seen)
        i = ids.setdefault(value, n)
        if i == n:
            seen.append(value)
        return i

    def tables(component):
        """A cached row per parameter id q, i |-> id of component(seen[i],
        seen[q]), and the cached id of its pfix at seen[q]."""
        apply, pfix = component.apply, _pfix_of(component)

        @cache
        def row(q: int):
            p = seen[q]
            return cache(lambda i: id_of(apply(seen[i], p)))

        return row, cache(lambda q: id_of(pfix(seen[q])))

    row, fixed = tables(alpha)
    row_p, fixed_p = tables(alpha_p)
    F, G = family.F, family.G
    u_homs = HomSpace(family.category, xp, x).morphisms()
    v_homs = HomSpace(family.category, y, yp).morphisms()
    h_homs = alpha.arg_space.morphisms()
    p_homs = alpha.param_space.morphisms()
    for h in h_homs:
        id_of(h)
    p_ids = [id_of(p) for p in p_homs]
    bot1, bot2 = id_of(alpha.arg_space.bottom), id_of(alpha_p.arg_space.bottom)

    for u in u_homs:
        fu, gu = F.apply_mor(u), G.apply_mor(u)
        for v in v_homs:
            fv, gv = F.apply_mor(v), G.apply_mor(v)
            # The id of the transport of each h_i.
            moved = [id_of(_transport(fv, h, fu)) for h in h_homs]
            for j, p in zip(p_ids, p_homs):
                q = id_of(_transport(gv, p, gu))
                alpha_j, alpha_q = row(j), row_p(q)

                for i, h in enumerate(h_homs):
                    try:
                        lhs = alpha_q(moved[i])
                        rhs = moved[alpha_j(i)]
                    except IncompatibleJoin:
                        checker.skip()
                        continue
                    checker.check(
                        "family-square",
                        lhs == rhs,
                        "u={0!r} v={1!r} h={2!r} p={3!r}", u, v, h, p,
                    )

                a, b = bot1, bot2
                try:
                    for n in range(1, fuel + 1):
                        a = alpha_j(a)
                        b = alpha_q(b)
                        checker.check(
                            "iterate-square",
                            b == moved[a],
                            "n={0} u={1!r} v={2!r} p={3!r}", n, u, v, p,
                        )
                    lhs = fixed_p(q)
                    rhs = moved[fixed(j)]
                except IncompatibleJoin:
                    checker.skip()
                    continue
                checker.check(
                    "pfix-square",
                    lhs == rhs,
                    "u={0!r} v={1!r} p={2!r}", u, v, p,
                )
    return checker.done()


def check_self_conjugate(family: NaturalFamily, x: FinObject, y: FinObject) -> LawReport:
    """alpha_{X,Y}(f)+ = alpha_{Y,X}(f+), and the conjugate formulation
    alpha_{X,Y} = conj(alpha_{Y,X}); the two must agree instance by instance.

    A two-argument family is checked on every (h, p), a one-argument one on
    every f, drawn from the spaces of alpha_{X,Y}; conjugation daggers each
    argument.  All three formulations apply unchecked."""
    checker = Checker("self-conjugate")
    a_xy = family.component(x, y)
    a_yx = family.component(y, x)
    if isinstance(a_xy, ParamExpr):
        witness, conj_yx = "h={0!r} p={1!r}", conj_param(a_yx)
        spaces = (a_xy.arg_space, a_xy.param_space)
    else:
        witness, spaces, conj_yx = "f={0!r}", (a_xy.dom,), conj(a_yx)
    apply_xy, apply_yx, apply_conj = a_xy.apply, a_yx.apply, conj_yx.apply

    for args in product(*(space.morphisms() for space in spaces)):
        try:
            direct = apply_xy(*args)
            swapped = apply_yx(*(arg.dagger() for arg in args))
            via_conj = apply_conj(*args)
        except IncompatibleJoin:
            checker.skip()
            continue
        first = direct.dagger().isclose(swapped)
        second = via_conj.isclose(direct)
        checker.check("dagger-preservation", first, witness, *args)
        checker.check("conjugate-formulation", second, witness, *args)
        checker.check("formulations-agree", first == second, witness, *args)
    return checker.done()
