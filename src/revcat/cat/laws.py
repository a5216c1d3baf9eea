"""Machine-checkable law suites for the three categories.

Each law is stated once, in ``LAWS``, as a predicate over one instance and
the tolerance.  Finite categories (rel, pinj) supply their instances
exhaustively, over all objects of the configured sizes.  The stochastic
category has uncountable hom-sets, so its instances are randomized and
require an explicit seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from random import Random
from typing import Optional

from ..report import Checker, LawReport
from .dstoch import DEFAULT_TOLERANCE, random_chain, random_ordered_pair, random_stoch
from .objects import FinObject
from .ops import DSTOCH, HomSpace, identity

SUITES = ("dagger", "enrichment", "monotone-dagger", "order-iso")


@dataclass(frozen=True)
class LawConfig:
    sizes: tuple[int, ...] = (0, 1, 2)
    trials: int = 200
    seed: Optional[int] = None
    tolerance: float = DEFAULT_TOLERANCE
    fuel: int = 10
    depth: int = 4


def _bottom(like, src: FinObject, dst: FinObject):
    """The bottom of Hom(src, dst) in the category of ``like``."""
    return type(like).bottom(src, dst)


def _sup(chain):
    return type(chain[0]).sup(chain)


# Law name -> (predicate over one instance and the tolerance, witness format
# filled with that instance).  Objects are FinObjects; a chain is a list of
# morphisms ascending from the bottom.  The dagger of every category is
# exact (dstoch's transposes), so laws of daggers alone compare with ==; the
# others take the tolerance, which rel and pinj ignore.
LAWS = {
    "identity-dagger": (lambda i, tol: i.dagger() == i, "{0!r}"),
    "double-dagger": (lambda f, tol: f.dagger().dagger() == f, "{0!r}"),
    "compose-dagger": (
        lambda f, g, tol: g.compose(f).dagger().isclose(f.dagger().compose(g.dagger()), tol),
        "f={0!r} g={1!r}",
    ),
    "bottom-after": (
        lambda f, z, tol: _bottom(f, f.dst, z).compose(f).isclose(_bottom(f, f.src, z), tol),
        "f={0!r} z={1!r}",
    ),
    "bottom-before": (
        lambda g, x, tol: g.compose(_bottom(g, x, g.src)).isclose(_bottom(g, x, g.dst), tol),
        "g={0!r} x={1!r}",
    ),
    "compose-monotone-left": (
        lambda f, f2, g, tol: g.compose(f).leq(g.compose(f2), tol),
        "f={0!r} f'={1!r} g={2!r}",
    ),
    "compose-monotone-right": (
        lambda g, g2, f, tol: g.compose(f).leq(g2.compose(f), tol),
        "g={0!r} g'={1!r} f={2!r}",
    ),
    "compose-preserves-sup": (
        lambda chain, g, tol: g.compose(_sup(chain)).isclose(
            _sup([g.compose(c) for c in chain]), tol
        ),
        "chain={0!r} g={1!r}",
    ),
    "dagger-monotone": (lambda f, g, tol: f.dagger().leq(g.dagger(), tol), "f={0!r} g={1!r}"),
    "order-iso": (
        lambda f, g, tol: f.leq(g, tol) == f.dagger().leq(g.dagger(), tol),
        "f={0!r} g={1!r}",
    ),
    "dagger-preserves-sup": (
        lambda chain, tol: _sup(chain).dagger().isclose(_sup([c.dagger() for c in chain]), tol),
        "chain={0!r}",
    ),
    "dagger-strict": (
        lambda bot, tol: bot.dagger() == _bottom(bot, bot.dst, bot.src),
        "{0!r}",
    ),
}
# Randomized ordered pairs are drawn apart from the order-iso pair, so the
# stochastic order-iso suite also checks that the dagger keeps them ordered.
LAWS["order-iso-ordered"] = LAWS["dagger-monotone"]


def law_suite(category: str, suite: str, config: LawConfig = LawConfig()) -> LawReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    checker = Checker(suite)
    check, tol = checker.check, config.tolerance
    batches = _drawn(suite, config) if category == DSTOCH else _enumerated(category, suite, config)
    for law, instances in batches:
        holds, witness = LAWS[law]
        for args in instances:
            check(law, holds(*args, tol), witness, *args)
    return checker.done()


def _triples(pairs, ms):
    """``(a, b, m)`` for each pair ``(a, b)`` and, within it, each ``m``."""
    return (pair + (m,) for pair, m in product(pairs, ms))


def _enumerated(category: str, suite: str, config: LawConfig):
    """``(law, instances)`` batches over every object of the configured sizes,
    in the order of the objects, then of each hom-set's morphisms."""
    objects = [FinObject(s) for s in config.sizes]
    homs = {(x, y): HomSpace(category, x, y).morphisms() for x, y in product(objects, repeat=2)}

    @cache
    def ordered(x, y):
        return [(f, g) for f, g in product(homs[x, y], repeat=2) if f.leq(g)]

    def chains(x, y):
        bot = HomSpace(category, x, y).bottom
        return [[bot, f, g] for f, g in ordered(x, y)]

    if suite == "dagger":
        for x in objects:
            yield "identity-dagger", [(identity(category, x),)]
        for fs in homs.values():
            yield "double-dagger", zip(fs)
        for x, y, z in product(objects, repeat=3):
            yield "compose-dagger", product(homs[x, y], homs[y, z])
    elif suite == "enrichment":
        for x, y, z in product(objects, repeat=3):
            yield "bottom-after", product(homs[x, y], [z])
            yield "bottom-before", product(homs[y, z], [x])
            yield "compose-monotone-left", _triples(ordered(x, y), homs[y, z])
            yield "compose-monotone-right", _triples(ordered(y, z), homs[x, y])
            yield "compose-preserves-sup", product(chains(x, y), homs[y, z])
    elif suite == "monotone-dagger":
        for x, y in product(objects, repeat=2):
            yield "dagger-monotone", ordered(x, y)
    else:
        for x, y in product(objects, repeat=2):
            yield "order-iso", product(homs[x, y], repeat=2)
            yield "dagger-preserves-sup", zip(chains(x, y))
            yield "dagger-strict", [(HomSpace(category, x, y).bottom,)]


def _drawn(suite: str, config: LawConfig):
    """``(law, instances)`` batches of ``config.trials`` seeded trials, each
    checking every law of the suite once on one random object."""
    if config.seed is None:
        raise ValueError("randomized suites require a seed")
    sizes = [s for s in config.sizes if s > 0]
    if not sizes:
        raise ValueError("dstoch laws need a positive object size")
    rng = Random(config.seed)
    for _ in range(config.trials):
        obj = FinObject(rng.choice(sizes))
        if suite == "dagger":
            f, g = random_stoch(obj, rng), random_stoch(obj, rng)
            yield "identity-dagger", [(identity(DSTOCH, obj),)]
            yield "double-dagger", [(f,)]
            yield "compose-dagger", [(f, g)]
        elif suite == "enrichment":
            f, g = random_ordered_pair(obj, rng)
            h = random_stoch(obj, rng)
            yield "bottom-after", [(h, obj)]
            yield "bottom-before", [(h, obj)]
            yield "compose-monotone-left", [(f, g, h)]
            yield "compose-monotone-right", [(f, g, h)]
            yield "compose-preserves-sup", [(random_chain(obj, rng, 4), h)]
        elif suite == "monotone-dagger":
            yield "dagger-monotone", [random_ordered_pair(obj, rng)]
        else:
            f, g = random_ordered_pair(obj, rng)
            a, b = random_stoch(obj, rng), random_stoch(obj, rng)
            yield "order-iso", [(a, b)]
            yield "order-iso-ordered", [(f, g)]
            yield "dagger-preserves-sup", [(random_chain(obj, rng, 4),)]
            yield "dagger-strict", [(HomSpace(DSTOCH, obj, obj).bottom,)]
