"""Fixed points of functionals and the adjoint/conjugation checkers."""
from __future__ import annotations

from random import Random
from typing import Optional

from ..cat import dagger
from ..errors import DimensionMismatch, IncompatibleJoin
from ..order import FixMode, FixPolicy, HomDomain, kleene_fix, kleene_pfix
from .expr import (
    Const,
    DaggerFn,
    FunctionalExpr,
    IdentityFn,
    JoinOf,
    JoinWith,
    PostCompose,
    PreCompose,
    Seq,
    apply_functional,
    conj,
)
from .param import ArgP, ArgX, ParamExpr, PApply, PConst, PJoin, apply_param, conj_param
from .spaces import HomSpace
from ..report import Checker, LawReport


def default_policy(domain: HomDomain) -> FixPolicy:
    """Metric convergence where the hom-set has a metric, else exact stabilization."""
    return FixPolicy(mode=FixMode.EXACT if domain.metric is None else FixMode.METRIC)


def fix_functional(phi: FunctionalExpr, policy: Optional[FixPolicy] = None):
    """Least fixed point of an endo-functional."""
    if phi.dom != phi.cod:
        raise DimensionMismatch(f"not an endo-functional: {phi.dom!r} -> {phi.cod!r}")
    domain = phi.dom.domain()
    policy = policy or default_policy(domain)
    return kleene_fix(lambda h: apply_functional(phi, h), domain, policy).value


def pfix_functional(psi: ParamExpr, p, policy: Optional[FixPolicy] = None):
    """Parametrized least fixed point of psi at parameter p."""
    if psi.cod != psi.arg_space:
        raise DimensionMismatch(
            f"not endo in the recursion argument: {psi.cod!r} vs {psi.arg_space!r}"
        )
    domain = psi.arg_space.domain()
    policy = policy or default_policy(domain)
    return kleene_pfix(lambda x, q: apply_param(psi, x, q), p, domain, policy).value


def check_fixed_point_adjoint(
    phi: FunctionalExpr,
    policy: Optional[FixPolicy] = None,
    tolerance: float = 1e-9,
) -> LawReport:
    """fix(conj(phi)) must be the dagger of fix(phi)."""
    checker = Checker("fix-adjoint")
    try:
        direct = fix_functional(phi, policy)
        adjoint = fix_functional(conj(phi), policy)
    except IncompatibleJoin:
        checker.skip("fix-adjoint")
        return checker.done()
    checker.check(
        "fix-adjoint",
        adjoint.isclose(dagger(direct), tolerance),
        lambda: f"fix={direct!r} fix-of-conjugate={adjoint!r}",
    )
    return checker.done()


def _parameters_for(psi: ParamExpr, parameters):
    if parameters is not None:
        return list(parameters)
    return psi.param_space.morphisms()


def check_pfix_adjoint(
    psi: ParamExpr,
    policy: Optional[FixPolicy] = None,
    parameters=None,
    tolerance: float = 1e-9,
) -> LawReport:
    """(pfix psi)(p)+ must equal (pfix conj(psi))(p+) for each parameter."""
    checker = Checker("pfix-adjoint")
    conjugate = conj_param(psi)
    for p in _parameters_for(psi, parameters):
        try:
            lhs = dagger(pfix_functional(psi, p, policy))
            rhs = pfix_functional(conjugate, dagger(p), policy)
        except IncompatibleJoin:
            checker.skip("pfix-adjoint")
            continue
        checker.check(
            "pfix-adjoint",
            lhs.isclose(rhs, tolerance),
            lambda p=p, lhs=lhs, rhs=rhs: f"p={p!r} lhs={lhs!r} rhs={rhs!r}",
        )
    return checker.done()


def check_conj_preservation(
    psi: ParamExpr,
    policy: Optional[FixPolicy] = None,
    parameters=None,
    tolerance: float = 1e-9,
) -> LawReport:
    """conj(pfix psi) = pfix(conj psi), pointwise on parameters.

    The left side conjugates the one-argument fixed-point functional:
    p |-> ((pfix psi)(p+))+.
    """
    checker = Checker("conj-preservation")
    conjugate = conj_param(psi)
    for p in _parameters_for(conjugate, parameters):
        try:
            lhs = dagger(pfix_functional(psi, dagger(p), policy))
            rhs = pfix_functional(conjugate, p, policy)
        except IncompatibleJoin:
            checker.skip("conj-preservation")
            continue
        checker.check(
            "conj-preservation",
            lhs.isclose(rhs, tolerance),
            lambda p=p, lhs=lhs, rhs=rhs: f"p={p!r} lhs={lhs!r} rhs={rhs!r}",
        )
    return checker.done()


def check_pfix_identity(
    psi: ParamExpr,
    policy: Optional[FixPolicy] = None,
    parameters=None,
    tolerance: float = 1e-9,
) -> LawReport:
    """pfix psi = psi . <pfix psi, id> at each parameter."""
    checker = Checker("pfix-identity")
    for p in _parameters_for(psi, parameters):
        try:
            v = pfix_functional(psi, p, policy)
            w = apply_param(psi, v, p)
        except IncompatibleJoin:
            checker.skip("pfix-fixpoint")
            continue
        checker.check(
            "pfix-fixpoint",
            w.isclose(v, tolerance),
            lambda p=p, v=v, w=w: f"p={p!r} pfix={v!r} psi(pfix,p)={w!r}",
        )
    return checker.done()


# -- seeded random expression trees ----------------------------------------


def _sandwich(space: HomSpace, mid: FunctionalExpr) -> FunctionalExpr:
    """h |-> (mid(h+))+, an endo on ``space`` exercising DaggerFn."""
    flipped = space.flipped()
    return Seq(DaggerFn(space), Seq(mid, DaggerFn(flipped)))


def _random_unary(space: HomSpace, rng: Random, homs, src_endos, dst_endos) -> FunctionalExpr:
    kind = rng.randrange(5)
    if kind == 0:
        return IdentityFn(space)
    if kind == 1:
        return JoinWith(rng.choice(homs))
    if kind == 2:
        return PreCompose(rng.choice(src_endos), space)
    if kind == 3:
        return PostCompose(rng.choice(dst_endos), space)
    return _sandwich(space, JoinWith(dagger(rng.choice(homs))))


def random_endo_functional(space: HomSpace, rng: Random, depth: int = 4) -> FunctionalExpr:
    """Seeded random endo-functional; leaves drawn uniformly from the hom-set."""
    homs = space.morphisms()
    src_endos = HomSpace(space.category, space.src, space.src).morphisms()
    dst_endos = HomSpace(space.category, space.dst, space.dst).morphisms()

    def gen(d: int) -> FunctionalExpr:
        if d <= 0 or rng.random() < 0.3:
            kind = rng.randrange(3)
            if kind == 0:
                return Const(rng.choice(homs), space)
            if kind == 1:
                return IdentityFn(space)
            return JoinWith(rng.choice(homs))
        kind = rng.randrange(4)
        if kind == 0:
            return Seq(gen(d - 1), gen(d - 1))
        if kind == 1:
            return JoinOf(gen(d - 1), gen(d - 1))
        if kind == 2:
            return _sandwich(space, JoinWith(dagger(rng.choice(homs))))
        return _random_unary(space, rng, homs, src_endos, dst_endos)

    return gen(depth)


def random_param_functional(
    arg_space: HomSpace,
    param_space: HomSpace,
    rng: Random,
    depth: int = 4,
) -> ParamExpr:
    """Seeded random parametrized functional, endo in the recursion slot."""
    homs = arg_space.morphisms()
    src_endos = HomSpace(arg_space.category, arg_space.src, arg_space.src).morphisms()
    dst_endos = HomSpace(arg_space.category, arg_space.dst, arg_space.dst).morphisms()
    mixable = param_space == arg_space

    def leaf() -> ParamExpr:
        kind = rng.randrange(3 if mixable else 2)
        if kind == 0:
            return ArgX(arg_space, param_space)
        if kind == 1:
            return PConst(rng.choice(homs), arg_space, param_space)
        return ArgP(arg_space, param_space)

    def gen(d: int) -> ParamExpr:
        if d <= 0 or rng.random() < 0.3:
            return leaf()
        kind = rng.randrange(3)
        if kind == 0:
            return PJoin(gen(d - 1), gen(d - 1))
        if kind == 1:
            return PApply(
                _random_unary(arg_space, rng, homs, src_endos, dst_endos), gen(d - 1)
            )
        return PApply(JoinWith(rng.choice(homs)), gen(d - 1))

    return gen(depth)
