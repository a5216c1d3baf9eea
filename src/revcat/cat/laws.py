"""Machine-checkable law suites for the three categories.

Finite categories (rel, pinj) are checked exhaustively over all objects of
the configured sizes.  The stochastic category has uncountable hom-sets,
so its checks are randomized and require an explicit seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

from ..report import Checker, LawReport
from .dstoch import random_chain, random_ordered_pair, random_stoch
from .objects import FinObject
from .ops import DSTOCH, bottom, compose, dagger, enumerate_homs, identity, leq, sup_chain

SUITES = ("dagger", "enrichment", "monotone-dagger", "order-iso")


@dataclass(frozen=True)
class LawConfig:
    sizes: tuple[int, ...] = (0, 1, 2)
    trials: int = 200
    seed: Optional[int] = None
    tolerance: float = 1e-9
    fuel: int = 10
    depth: int = 4


def law_suite(category: str, suite: str, config: LawConfig = LawConfig()) -> LawReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    checker = Checker(suite)
    if category == DSTOCH:
        _run_stochastic(suite, config, checker)
    else:
        _run_finite(category, suite, config, checker)
    return checker.done()


# -- exhaustive checks over rel / pinj ------------------------------------


def _run_finite(category: str, suite: str, config: LawConfig, checker: Checker) -> None:
    objects = [FinObject(s) for s in config.sizes]
    homs = {
        (x, y): enumerate_homs(category, x, y)
        for x in objects
        for y in objects
    }

    def ordered_pairs(x, y):
        for f in homs[x, y]:
            for g in homs[x, y]:
                if leq(f, g):
                    yield f, g

    if suite == "dagger":
        for x in objects:
            i = identity(category, x)
            checker.check("identity-dagger", dagger(i) == i, lambda i=i: repr(i))
        for (x, y), fs in homs.items():
            for f in fs:
                checker.check(
                    "double-dagger", dagger(dagger(f)) == f, lambda f=f: repr(f)
                )
        for x in objects:
            for y in objects:
                for z in objects:
                    for f in homs[x, y]:
                        for g in homs[y, z]:
                            checker.check(
                                "compose-dagger",
                                dagger(compose(g, f))
                                == compose(dagger(f), dagger(g)),
                                lambda f=f, g=g: f"f={f!r} g={g!r}",
                            )

    elif suite == "enrichment":
        for x in objects:
            for y in objects:
                for z in objects:
                    bot_yz = bottom(category, y, z)
                    bot_xz = bottom(category, x, z)
                    for f in homs[x, y]:
                        checker.check(
                            "bottom-after",
                            compose(bot_yz, f) == bot_xz,
                            lambda f=f: repr(f),
                        )
                    bot_xy = bottom(category, x, y)
                    for g in homs[y, z]:
                        checker.check(
                            "bottom-before",
                            compose(g, bot_xy) == bot_xz,
                            lambda g=g: repr(g),
                        )
                    for f, f2 in ordered_pairs(x, y):
                        for g in homs[y, z]:
                            checker.check(
                                "compose-monotone-left",
                                leq(compose(g, f), compose(g, f2)),
                                lambda f=f, f2=f2, g=g: f"f={f!r} f'={f2!r} g={g!r}",
                            )
                    for g, g2 in ordered_pairs(y, z):
                        for f in homs[x, y]:
                            checker.check(
                                "compose-monotone-right",
                                leq(compose(g, f), compose(g2, f)),
                                lambda g=g, g2=g2, f=f: f"g={g!r} g'={g2!r} f={f!r}",
                            )
                    for f, f2 in ordered_pairs(x, y):
                        chain = [bottom(category, x, y), f, f2]
                        for g in homs[y, z]:
                            lhs = compose(g, sup_chain(category, chain))
                            rhs = sup_chain(category, [compose(g, c) for c in chain])
                            checker.check(
                                "compose-preserves-sup",
                                lhs == rhs,
                                lambda f=f, f2=f2, g=g: f"chain to {f2!r}, g={g!r}",
                            )

    elif suite == "monotone-dagger":
        for x in objects:
            for y in objects:
                for f, g in ordered_pairs(x, y):
                    checker.check(
                        "dagger-monotone",
                        leq(dagger(f), dagger(g)),
                        lambda f=f, g=g: f"f={f!r} g={g!r}",
                    )

    elif suite == "order-iso":
        for x in objects:
            for y in objects:
                for f in homs[x, y]:
                    for g in homs[x, y]:
                        checker.check(
                            "order-iso",
                            leq(f, g) == leq(dagger(f), dagger(g)),
                            lambda f=f, g=g: f"f={f!r} g={g!r}",
                        )
                for f, g in ordered_pairs(x, y):
                    chain = [bottom(category, x, y), f, g]
                    checker.check(
                        "dagger-preserves-sup",
                        dagger(sup_chain(category, chain))
                        == sup_chain(category, [dagger(c) for c in chain]),
                        lambda f=f, g=g: f"chain {f!r} <= {g!r}",
                    )
                bot = bottom(category, x, y)
                checker.check(
                    "dagger-strict",
                    dagger(bot) == bottom(category, y, x),
                    lambda x=x, y=y: f"hom ({x!r}, {y!r})",
                )


# -- randomized checks over dstoch ----------------------------------------


def _run_stochastic(suite: str, config: LawConfig, checker: Checker) -> None:
    if config.seed is None:
        raise ValueError("randomized suites require a seed")
    sizes = [s for s in config.sizes if s > 0]
    if not sizes:
        raise ValueError("dstoch laws need a positive object size")
    rng = Random(config.seed)
    tol = config.tolerance

    for _ in range(config.trials):
        obj = FinObject(rng.choice(sizes))

        if suite == "dagger":
            f = random_stoch(obj, rng)
            g = random_stoch(obj, rng)
            i = identity(DSTOCH, obj)
            checker.check("identity-dagger", dagger(i) == i, lambda i=i: repr(i))
            checker.check("double-dagger", dagger(dagger(f)) == f, lambda f=f: repr(f))
            checker.check(
                "compose-dagger",
                dagger(compose(g, f)).isclose(
                    compose(dagger(f), dagger(g)), tol
                ),
                lambda f=f, g=g: f"f={f!r} g={g!r}",
            )

        elif suite == "enrichment":
            f, g = random_ordered_pair(obj, rng)
            h = random_stoch(obj, rng)
            bot = bottom(DSTOCH, obj, obj)
            checker.check(
                "bottom-after", compose(bot, h).isclose(bot, tol), lambda h=h: repr(h)
            )
            checker.check(
                "bottom-before", compose(h, bot).isclose(bot, tol), lambda h=h: repr(h)
            )
            checker.check(
                "compose-monotone-left",
                compose(h, f).leq(compose(h, g), tol),
                lambda f=f, g=g, h=h: f"f={f!r} g={g!r} h={h!r}",
            )
            checker.check(
                "compose-monotone-right",
                compose(f, h).leq(compose(g, h), tol),
                lambda f=f, g=g, h=h: f"f={f!r} g={g!r} h={h!r}",
            )
            chain = random_chain(obj, rng, 4)
            lhs = compose(h, sup_chain(DSTOCH, chain))
            rhs = sup_chain(DSTOCH, [compose(h, c) for c in chain])
            checker.check(
                "compose-preserves-sup",
                lhs.isclose(rhs, tol),
                lambda h=h: f"h={h!r}",
            )

        elif suite == "monotone-dagger":
            f, g = random_ordered_pair(obj, rng)
            checker.check(
                "dagger-monotone",
                dagger(f).leq(dagger(g), tol),
                lambda f=f, g=g: f"f={f!r} g={g!r}",
            )

        elif suite == "order-iso":
            f, g = random_ordered_pair(obj, rng)
            a = random_stoch(obj, rng)
            b = random_stoch(obj, rng)
            checker.check(
                "order-iso",
                a.leq(b, tol) == dagger(a).leq(dagger(b), tol),
                lambda a=a, b=b: f"a={a!r} b={b!r}",
            )
            checker.check(
                "order-iso-ordered",
                dagger(f).leq(dagger(g), tol),
                lambda f=f, g=g: f"f={f!r} g={g!r}",
            )
            chain = random_chain(obj, rng, 4)
            checker.check(
                "dagger-preserves-sup",
                dagger(sup_chain(DSTOCH, chain)).isclose(
                    sup_chain(DSTOCH, [dagger(c) for c in chain]), tol
                ),
                lambda obj=obj: repr(obj),
            )
            bot = bottom(DSTOCH, obj, obj)
            checker.check("dagger-strict", dagger(bot) == bot, lambda: "bottom")
