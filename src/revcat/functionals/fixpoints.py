"""Fixed points of functionals and the adjoint/conjugation checkers."""
from __future__ import annotations

from random import Random

from ..cat.ops import HomSpace
from ..errors import DimensionMismatch, IncompatibleJoin
from ..order import FixPolicy, KleeneResult, kleene_fix, kleene_pfix
from ..report import Checker, LawReport
from .expr import (
    Const,
    DaggerFn,
    FunctionalExpr,
    IdentityFn,
    JoinOf,
    JoinWith,
    Param,
    PostCompose,
    PreCompose,
    Seq,
    conj,
    refuse_param_leaves,
)
from .param import ParamExpr, conj_param
from .spaces import space_of


def fix_functional(phi: FunctionalExpr, policy: FixPolicy | None = None) -> KleeneResult:
    """Least fixed point of an endo-functional, with its iteration count and
    residual, reached within ``policy`` (``FixPolicy()`` without one).

    The engine checks that each iterate stays in ``phi.dom``, so each step
    applies ``phi`` directly.  A Param leaf is refused: no parameter is
    passed to it."""
    refuse_param_leaves(phi)
    if phi.dom != phi.cod:
        raise DimensionMismatch(f"not an endo-functional: {phi.dom!r} -> {phi.cod!r}")
    return kleene_fix(phi.apply, phi.dom, policy)


class _Undefined:
    """A fixed point whose chain met an undefined join, remembered by the
    message of its IncompatibleJoin: the memo keeps no exception or
    traceback, and each use raises a fresh one."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


def _conjugate_of(psi: ParamExpr) -> ParamExpr:
    """``conj_param(psi)``, built once per instance of ``psi`` and kept in
    its memo: only a miss calls ``conj_param``."""
    conjugate = psi._conjugate
    if conjugate is None:
        conjugate = conj_param(psi)
        object.__setattr__(psi, "_conjugate", conjugate)
    return conjugate


def _pfix_of(psi: ParamExpr):
    """p |-> (pfix psi)(p), for parameters known to lie in ``psi.param_space``,
    as the checkers' are: drawn from it, or daggers of parameters of the
    conjugate.  ``psi``'s spaces are checked once, here; the engine checks
    each iterate, so each step applies ``psi`` directly.  Each fixed point
    is iterated once per instance of ``psi`` and kept in its memo."""
    arg_space = psi.arg_space
    if psi.cod != arg_space:
        raise DimensionMismatch(f"not endo in the recursion argument: {psi.cod!r} vs {arg_space!r}")
    step, known = psi.apply, psi.fixed_points

    def pfix(p):
        value = known.get(p)
        if value is None:
            try:
                value = kleene_pfix(step, p, arg_space).value
            except IncompatibleJoin as exc:
                value = _Undefined(str(exc))
            known[p] = value
        if type(value) is _Undefined:
            raise IncompatibleJoin(value.message)
        return value

    return pfix


def pfix_functional(psi: ParamExpr, p):
    """Parametrized least fixed point of psi at parameter p, with ``p``
    checked against ``psi.param_space``."""
    pfix = _pfix_of(psi)
    if space_of(p) != psi.param_space:
        raise DimensionMismatch(f"{p!r} is not in {psi.param_space!r}")
    return pfix(p)


def check_fixed_point_adjoint(phi: FunctionalExpr) -> LawReport:
    """fix(conj(phi)) must be the dagger of fix(phi)."""
    checker = Checker("fix-adjoint")
    try:
        direct = fix_functional(phi).value
        adjoint = fix_functional(conj(phi)).value
    except IncompatibleJoin:
        checker.skip()
        return checker.done()
    checker.check(
        "fix-adjoint",
        adjoint.isclose(direct.dagger()),
        "fix={0!r} fix-of-conjugate={1!r}", direct, adjoint,
    )
    return checker.done()


def _pointwise(checker: Checker, law: str, parameters, sides, witness: str) -> LawReport:
    """Check ``law`` as ``lhs.isclose(rhs)`` for ``lhs, rhs = sides(p)`` at
    each parameter ``p``, skipping it where a join is undefined.  ``witness``
    is a template over ``p``, ``lhs`` and ``rhs``, in that order."""
    for p in parameters:
        try:
            lhs, rhs = sides(p)
        except IncompatibleJoin:
            checker.skip()
            continue
        checker.check(law, lhs.isclose(rhs), witness, p, lhs, rhs)
    return checker.done()


def check_pfix_adjoint(psi: ParamExpr) -> LawReport:
    """(pfix psi)(p)+ must equal (pfix conj(psi))(p+) for each parameter."""
    pfix, pfix_conj = _pfix_of(psi), _pfix_of(_conjugate_of(psi))
    return _pointwise(
        Checker("pfix-adjoint"),
        "pfix-adjoint",
        psi.param_space.morphisms(),
        lambda p: (pfix(p).dagger(), pfix_conj(p.dagger())),
        "p={0!r} lhs={1!r} rhs={2!r}",
    )


def check_conj_preservation(psi: ParamExpr) -> LawReport:
    """conj(pfix psi) = pfix(conj psi), pointwise on parameters.

    The left side conjugates the one-argument fixed-point functional:
    p |-> ((pfix psi)(p+))+.
    """
    conjugate = _conjugate_of(psi)
    pfix, pfix_conj = _pfix_of(psi), _pfix_of(conjugate)
    return _pointwise(
        Checker("conj-preservation"),
        "conj-preservation",
        conjugate.param_space.morphisms(),
        lambda p: (pfix(p.dagger()).dagger(), pfix_conj(p)),
        "p={0!r} lhs={1!r} rhs={2!r}",
    )


def check_pfix_identity(psi: ParamExpr) -> LawReport:
    """pfix psi = psi . <pfix psi, id> at each parameter, where ``psi``
    applies unchecked: both arguments come from its own spaces."""
    pfix, apply = _pfix_of(psi), psi.apply

    def sides(p):
        v = pfix(p)
        return apply(v, p), v

    return _pointwise(
        Checker("pfix-identity"),
        "pfix-fixpoint",
        psi.param_space.morphisms(),
        sides,
        "p={0!r} pfix={2!r} psi(pfix,p)={1!r}",
    )


# -- seeded random expression trees ----------------------------------------


def _sandwich(space: HomSpace, mid: FunctionalExpr) -> FunctionalExpr:
    """h |-> (mid(h+))+, an endo on ``space`` exercising DaggerFn."""
    flipped = space.flipped()
    return Seq(DaggerFn(space), Seq(mid, DaggerFn(flipped)))


def _random_unary(space: HomSpace, rng: Random) -> FunctionalExpr:
    """A random one-stage endo on ``space``; reindexing morphisms are drawn
    from the endo hom-sets of its source and target."""
    kind = rng.randrange(5)
    if kind == 0:
        return IdentityFn(space)
    if kind == 1:
        return JoinWith(rng.choice(space.morphisms()))
    if kind == 2:
        return PreCompose(rng.choice(HomSpace(space.category, space.src, space.src).morphisms()), space)
    if kind == 3:
        return PostCompose(rng.choice(HomSpace(space.category, space.dst, space.dst).morphisms()), space)
    return _sandwich(space, JoinWith(rng.choice(space.morphisms()).dagger()))


def random_endo_functional(space: HomSpace, rng: Random, depth: int = 4) -> FunctionalExpr:
    """Seeded random endo-functional; leaves drawn uniformly from the hom-set."""
    homs = space.morphisms()

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
            return _sandwich(space, JoinWith(rng.choice(homs).dagger()))
        return _random_unary(space, rng)

    return gen(depth)


def random_param_functional(
    arg_space: HomSpace,
    param_space: HomSpace,
    rng: Random,
    depth: int = 4,
) -> ParamExpr:
    """Seeded random parametrized functional, endo in the recursion slot.

    A stage applied last is drawn before the stages it is applied to."""
    homs = arg_space.morphisms()
    mixable = param_space == arg_space

    def leaf() -> FunctionalExpr:
        kind = rng.randrange(3 if mixable else 2)
        if kind == 0:
            return IdentityFn(arg_space)
        if kind == 1:
            return Const(rng.choice(homs), arg_space)
        return Param(arg_space, param_space)

    def gen(d: int) -> FunctionalExpr:
        if d <= 0 or rng.random() < 0.3:
            return leaf()
        kind = rng.randrange(3)
        if kind == 0:
            return JoinOf(gen(d - 1), gen(d - 1))
        last = _random_unary(arg_space, rng) if kind == 1 else JoinWith(rng.choice(homs))
        return Seq(gen(d - 1), last)

    return ParamExpr(gen(depth), param_space)
