"""Bridge from programs to partial injections over a truncated value universe.

The universe holds every constructor term up to a node-count bound.  A
function denotes the partial injection sending v to its evaluation result
when that result is defined and stays inside the universe; restricting
both sides to the same finite carrier keeps the inversion laws exact.
"""
from __future__ import annotations

from random import Random

from ..cat.objects import FinObject
from ..cat.pinj import PInjMorphism
from ..errors import TooLarge
from ..report import Checker, LawReport
from .interp import Evaluator, closed_ref
from .parser import parse_callref_text
from .syntax import Atom, CallRef, Cons, Nil, Pair, Program, S, Term, Z, dagger_ref
from .validate import require_valid


# The most terms ``denote`` evaluates its program on: a universe bound of 9
# holds 38,962 terms without atoms, and 10 already holds 165,588.
MAX_UNIVERSE = 50_000
# The default node-count bound of the tree values ``roundtrip_check`` draws.
VALUE_BOUND = 16


def enumerate_values(bound: int, atoms: tuple[str, ...] = ()) -> list[Term]:
    """All constructor terms with at most ``bound`` nodes, smallest first."""
    by_size: dict[int, list[Term]] = {0: []}
    for size in range(1, bound + 1):
        bucket: list[Term] = []
        if size == 1:
            bucket.append(Z())
            bucket.append(Nil())
            bucket.extend(Atom(a) for a in sorted(atoms))
        bucket.extend(S(v) for v in by_size[size - 1])
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left in by_size[left_size]:
                for right in by_size[right_size]:
                    bucket.append(Cons(left, right))
                    bucket.append(Pair(left, right))
        by_size[size] = bucket
    out: list[Term] = []
    for size in range(1, bound + 1):
        out.extend(by_size[size])
    return out


def denote(
    program: Program,
    fname: str,
    bindings: dict[str, CallRef],
    universe_bound: int,
    fuel: int,
) -> PInjMorphism:
    """The partial injection realized on the truncated universe."""
    require_valid(program)
    universe = enumerate_values(universe_bound, program.atoms)
    if len(universe) > MAX_UNIVERSE:
        raise TooLarge(
            f"universe of {len(universe)} terms exceeds the limit of {MAX_UNIVERSE}"
        )
    index = {v: i for i, v in enumerate(universe)}
    ref = closed_ref(program, parse_callref_text(fname), bindings)
    evaluator = Evaluator(program)
    obj = FinObject(len(universe))
    table: list[int | None] = [None] * len(universe)
    for i, v in enumerate(universe):
        w = evaluator.call(ref, v, fuel)
        if isinstance(w, Term):
            table[i] = index.get(w)  # None: escaped the bound, undefined here
    return PInjMorphism(obj, obj, tuple(table))


# Z, S Z, S (S Z), ...: the interned numerals, grown on demand and published
# whole, so a draw that races a growth still indexes a complete table.
_numerals: tuple[Term, ...] = (Z(),)


def numerals(limit: int) -> tuple[Term, ...]:
    """The interned numerals indexed by value, every one below ``limit``
    among them: the draws look numerals up instead of building them."""
    global _numerals
    nats = _numerals
    if len(nats) < limit:
        grown = list(nats)
        while len(grown) < limit:
            grown.append(S(grown[-1]))
        _numerals = nats = tuple(grown)
    return nats


def random_value(rng: Random, max_size: int, atoms: tuple[str, ...] = ()) -> Term:
    """A random constructor term within the size budget."""
    leaves = [Z(), Nil(), *map(Atom, sorted(atoms))]

    def draw(budget: int) -> Term:
        if budget <= 1:
            return rng.choice(leaves)
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice(leaves)
        if kind == 1:
            return S(draw(budget - 1))
        left = draw((budget - 1) // 2)
        right = draw((budget - 1) // 2)
        return Cons(left, right) if kind == 2 else Pair(left, right)

    return draw(max_size)


def random_peano_pair(rng: Random, limit: int = 24) -> Term:
    """A pair of numerals below ``limit``."""
    nats = numerals(limit)
    return Pair(nats[rng.randrange(limit)], nats[rng.randrange(limit)])


def random_nat_list(rng: Random, max_len: int = 5, limit: int = 6) -> Term:
    """A list of at most ``max_len`` numerals below ``limit``."""
    nats = numerals(limit)
    t: Term = Nil()
    for _ in range(rng.randrange(max_len + 1)):
        t = Cons(nats[rng.randrange(limit)], t)
    return t


def roundtrip_check(
    program: Program,
    fname: str,
    bindings: dict[str, CallRef],
    trials: int,
    fuel: int,
    seed: int,
    *,
    value_gen=None,
    value_bound: int = VALUE_BOUND,
) -> LawReport:
    """Forward-then-inverse recovery on random values, plus the fuel-indexed
    form: at any shared fuel, the forward and inverse runs realize each
    other's converse on the sampled points.  The inverse is ``dagger_ref``
    of the checked reference (``map<inc~>~`` for ``map<inc>``), run by the
    same evaluator, as ``revcat run`` runs ``f~``."""
    require_valid(program)
    checker = Checker("roundtrip")
    fref = closed_ref(program, parse_callref_text(fname), bindings)
    bref = dagger_ref(fref)
    evaluator = Evaluator(program)
    rng = Random(seed)
    gen = value_gen or (lambda r: random_value(r, value_bound, program.atoms))
    for _ in range(trials):
        v = gen(rng)
        w = evaluator.call(fref, v, fuel)
        if not isinstance(w, Term):
            checker.skip()
            continue
        back = evaluator.call(bref, w, fuel)
        checker.check(
            "roundtrip",
            back == v,
            "v={0!r} w={1!r} back={2!r}", v, w, back,
        )
        n = rng.randrange(1, fuel + 1)
        forward_n = evaluator.call(fref, v, n)
        backward_n = evaluator.call(bref, w, n)
        checker.check(
            "fuel-adjoint",
            (forward_n == w) == (backward_n == v),
            "v={0!r} w={1!r} fuel={2}", v, w, n,
        )
    return checker.done()
