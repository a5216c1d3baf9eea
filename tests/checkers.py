"""Law checkers that no revcat command runs; the tests call them directly.

Each returns a LawReport like the suites in ``revcat``, so a test can
assert both that a law holds and, on broken input, that it is caught.
"""
from random import Random
from typing import Optional

from revcat.cat import FinObject, compose, dagger, identity
from revcat.errors import IncompatibleJoin
from revcat.functionals import (
    ArgX,
    HomSpace,
    IdentityFunctor,
    NaturalFamily,
    PApply,
    PostCompose,
    fix_functional,
    pfix_functional,
)
from revcat.functionals.trace import trace
from revcat.order import FixPolicy, HomDomain
from revcat.report import Checker, LawReport
from revcat.revlang import UNDEFINED, ValidationFailed, eval_program, random_value, validate_program


def check_dagger_functor(functor, category: str, sizes=(0, 1, 2)) -> LawReport:
    """F(f+) = F(f)+ over every enumerated test morphism."""
    checker = Checker("dagger-functor")
    for x in sizes:
        for y in sizes:
            space = HomSpace(category, FinObject(x), FinObject(y))
            for f in space.morphisms():
                checker.check(
                    "functor-preserves-dagger",
                    functor.apply_mor(dagger(f)) == dagger(functor.apply_mor(f)),
                    lambda f=f: f"F={functor!r} f={f!r}",
                )
    return checker.done()


def check_functors(family: NaturalFamily, sizes=(0, 1, 2)) -> LawReport:
    """Both functors of a family commute with the dagger."""
    report = check_dagger_functor(family.F, family.category, sizes)
    return report.merge(check_dagger_functor(family.G, family.category, sizes))


def postcompose_family(category: str, c) -> NaturalFamily:
    """One-argument alpha(f) = c . f on endo hom-sets; self-conjugate only
    when c is hermitian, so a non-hermitian c witnesses a violation."""
    ident = IdentityFunctor()

    def component(x: FinObject, y: FinObject):
        return PostCompose(c, HomSpace(category, x, y))

    return NaturalFamily("postcompose", category, ident, ident, component)


def check_fix_pfix_agreement(
    phi,
    param_space: HomSpace,
    policy: Optional[FixPolicy] = None,
    parameters=None,
    tolerance: float = 1e-9,
) -> LawReport:
    """The two derivations between fix and pfix agree.

    Viewing an endo-functional as parametrized-but-ignoring-its-parameter,
    its parametrized fixed point at any parameter is the plain fixed point.
    """
    checker = Checker("fix-pfix-derivations")
    lifted = PApply(phi, ArgX(phi.dom, param_space))
    try:
        fixed = fix_functional(phi, policy)
    except IncompatibleJoin:
        checker.skip("pfix-from-fix")
        return checker.done()
    for p in param_space.morphisms() if parameters is None else list(parameters):
        try:
            v = pfix_functional(lifted, p, policy)
        except IncompatibleJoin:
            checker.skip("pfix-from-fix")
            continue
        checker.check(
            "pfix-from-fix",
            v.isclose(fixed, tolerance),
            lambda p=p, v=v: f"p={p!r} pfix={v!r} fix={fixed!r}",
        )
    return checker.done()


def spot_check_monotone(step, domain: HomDomain, sample_pairs) -> LawReport:
    """Probe step for monotonicity on pairs already known to satisfy f <= g."""
    checker = Checker("monotone-spot-check")
    for f, g in sample_pairs:
        if not domain.leq(f, g):
            raise ValueError("sample pair is not ordered: expected f <= g")
        checker.check(
            "monotonicity",
            domain.leq(step(f), step(g)),
            lambda f=f, g=g: f"f={f!r} g={g!r}",
        )
    return checker.done()


def check_trace_sliding(category: str, x_size: int, y_size: int, u_size: int) -> LawReport:
    """Sliding: Tr_U((id_Y + s) . g) = Tr_U'(g . (id_X + s))
    for every g: X + U -> Y + U' and s: U' -> U, with |U'| = |U| - 1."""
    checker = Checker("trace-sliding")
    x, y, u = FinObject(x_size), FinObject(y_size), FinObject(u_size)
    up = FinObject(max(0, u_size - 1))
    g_space = HomSpace(category, FinObject(x_size + u_size), FinObject(y_size + up.size))
    s_space = HomSpace(category, up, u)
    for g in g_space.morphisms():
        for s in s_space.morphisms():
            lhs = trace(compose(identity(category, y).block_sum(s), g), x, y, u)
            rhs = trace(compose(g, identity(category, x).block_sum(s)), x, y, up)
            checker.check(
                "trace-sliding",
                lhs == rhs,
                lambda g=g, s=s: f"g={g!r} s={s!r}",
            )
    return checker.done()


def fuel_monotonicity_check(
    program,
    fname: str,
    bindings: dict,
    samples: int,
    max_fuel: int,
    seed: int,
    value_gen=None,
    value_bound: int = 12,
) -> LawReport:
    """Defined at fuel n implies defined with the same value at any higher fuel."""
    validation = validate_program(program)
    if not validation.ok:
        raise ValidationFailed(validation)
    checker = Checker("fuel-monotonicity")
    rng = Random(seed)
    gen = value_gen or (lambda r: random_value(r, value_bound, program.atoms))
    for _ in range(samples):
        v = gen(rng)
        low = rng.randrange(0, max_fuel)
        high = rng.randrange(low, max_fuel + 1)
        at_low = eval_program(program, fname, bindings, v, low)
        at_high = eval_program(program, fname, bindings, v, high)
        ok = at_low is UNDEFINED or at_low == at_high
        checker.check(
            "fuel-monotone",
            ok,
            lambda v=v, low=low, high=high, a=at_low, b=at_high: (
                f"v={v!r} fuel {low}->{high}: {a!r} then {b!r}"
            ),
        )
    return checker.done()
