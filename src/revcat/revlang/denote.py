"""Bridge from programs to partial injections over a truncated value universe.

The universe holds every constructor term up to a node-count bound.  A
function denotes the partial injection sending v to its evaluation result
when that result is defined and stays inside the universe; restricting
both sides to the same finite carrier keeps the inversion laws exact.
"""
from __future__ import annotations

from random import Random

from ..cat import FinObject, PInjMorphism
from ..errors import RevcatError, TooLarge
from ..report import Checker, LawReport
from .interp import eval_program
from .invert import invert_binding, invert_program, toggle_suffix
from .syntax import Atom, CallRef, Cons, Nil, Pair, Program, S, Term, Z
from .validate import validate_program


class DenotationNotInjective(RevcatError):
    pass


class ValidationFailed(RevcatError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


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


def _gate(program: Program) -> None:
    report = validate_program(program)
    if not report.ok:
        raise ValidationFailed(report)


def denote(
    program: Program,
    fname: str,
    bindings: dict[str, CallRef],
    universe_bound: int,
    fuel: int,
    max_universe: int = 50_000,
) -> PInjMorphism:
    """The partial injection realized on the truncated universe."""
    _gate(program)
    universe = enumerate_values(universe_bound, program.atoms)
    if len(universe) > max_universe:
        raise TooLarge(
            f"universe of {len(universe)} terms exceeds the limit of {max_universe}"
        )
    index = {v: i for i, v in enumerate(universe)}
    obj = FinObject(len(universe), label=f"terms<={universe_bound}")
    table: list[int | None] = [None] * len(universe)
    hit: dict[int, Term] = {}
    for i, v in enumerate(universe):
        w = eval_program(program, fname, bindings, v, fuel)
        if isinstance(w, Term):
            j = index.get(w)
            if j is None:
                continue  # escaped the bound: undefined for the bridge
            if j in hit:
                raise DenotationNotInjective(
                    f"{fname} sends both {hit[j]!r} and {v!r} to {w!r}"
                )
            hit[j] = v
            table[i] = j
    return PInjMorphism(obj, obj, tuple(table))


def random_value(rng: Random, max_size: int, atoms: tuple[str, ...] = ()) -> Term:
    """A random constructor term within the size budget."""
    leaves = [Z(), Nil()] + [Atom(a) for a in sorted(atoms)]
    if max_size <= 1:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return S(random_value(rng, max_size - 1, atoms))
    left = random_value(rng, (max_size - 1) // 2, atoms)
    right = random_value(rng, (max_size - 1) // 2, atoms)
    return Cons(left, right) if kind == 2 else Pair(left, right)


def random_peano_pair(rng: Random, limit: int = 24) -> Term:
    def nat(n: int) -> Term:
        t: Term = Z()
        for _ in range(n):
            t = S(t)
        return t

    return Pair(nat(rng.randrange(limit)), nat(rng.randrange(limit)))


def random_nat_list(rng: Random, max_len: int = 5, limit: int = 6) -> Term:
    t: Term = Nil()
    for _ in range(rng.randrange(max_len + 1)):
        head: Term = Z()
        for _ in range(rng.randrange(limit)):
            head = S(head)
        t = Cons(head, t)
    return t


def roundtrip_check(
    program: Program,
    fname: str,
    bindings: dict[str, CallRef],
    trials: int,
    fuel: int,
    seed: int,
    value_gen=None,
    value_bound: int = 16,
    suffix: str = "_inv",
) -> LawReport:
    """Forward-then-inverse recovery on random values, plus the fuel-indexed
    form: at any shared fuel, the forward and inverse runs realize each
    other's converse on the sampled points."""
    _gate(program)
    checker = Checker("roundtrip")
    inverted = invert_program(program, suffix)
    inv_name = toggle_suffix(fname, suffix)
    inv_bindings = {
        p: invert_binding(r, program, suffix) for p, r in bindings.items()
    }
    rng = Random(seed)
    gen = value_gen or (lambda r: random_value(r, value_bound, program.atoms))
    for _ in range(trials):
        v = gen(rng)
        w = eval_program(program, fname, bindings, v, fuel)
        if not isinstance(w, Term):
            checker.skip("roundtrip")
            continue
        back = eval_program(inverted, inv_name, inv_bindings, w, fuel)
        checker.check(
            "roundtrip",
            back == v,
            lambda v=v, w=w, back=back: f"v={v!r} w={w!r} back={back!r}",
        )
        n = rng.randrange(1, fuel + 1)
        forward_n = eval_program(program, fname, bindings, v, n)
        backward_n = eval_program(inverted, inv_name, inv_bindings, w, n)
        checker.check(
            "fuel-adjoint",
            (forward_n == w) == (backward_n == v),
            lambda v=v, w=w, n=n: f"v={v!r} w={w!r} fuel={n}",
        )
    return checker.done()
