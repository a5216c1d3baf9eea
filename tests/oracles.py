"""Independent oracles used to freeze expected values.

Everything here is deliberately computed without the library's morphism
algebra: plain graph search, counting formulas, closed forms, and
pointwise orbit walks.  The ``stoch_*`` functions are the numpy reference
for ``dstoch``: its validation, product, transpose and seeded generators,
on ndarrays.  ``ReferenceEvaluator`` is the recursive revlang evaluator
that re-walks each pattern with ``syntax.match`` and ``instantiate`` on
every call, the reference for the compiled ``Evaluator`` and its call table.
``reference_repr`` and ``reference_show`` print terms by direct recursion,
the reference for the stack printer behind ``repr`` and ``show_term``.
``reference_naturality`` is the plain nested loop that the per-call tables
of ``check_naturality`` must agree with, check for check.  ``complement``
and ``term_size`` are fixtures: a relation that breaks the dagger and order
laws, and the node count that bounds ``enumerate_values``.
"""
from dataclasses import fields
from itertools import product
from math import comb, factorial

import numpy as np

from revcat.cat import HomSpace, compose
from revcat.errors import IncompatibleJoin, UnboundParameter, UnknownFunction
from revcat.functionals import HomSpace, apply_param, pfix_functional
from revcat.report import Checker
from revcat.revlang import (
    STUCK,
    UNDEFINED,
    Atom,
    CallRef,
    Pair,
    Var,
    dagger_ref,
    invert_def,
)
from revcat.revlang.syntax import instantiate, match, subterms


def reachability_closure(edges, n):
    """All (x, z) with a path of length >= 1 through ``edges``; plain BFS."""
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
    closure = set()
    for start in range(n):
        frontier = set(adjacency[start])
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            frontier |= adjacency[node] - seen
    return closure


def iterate_param_step(step, param, n_iterations):
    """Brute-force psi^n(empty, param) for set-of-pairs functionals."""
    current = frozenset()
    for _ in range(n_iterations):
        current = frozenset(step(current, param))
    return current


def count_partial_injections(n, m):
    return sum(comb(n, k) * comb(m, k) * factorial(k) for k in range(min(n, m) + 1))


def geometric_fixed_point(shift, scale):
    return shift / (1 - scale)


def compose_pairs(g_pairs, f_pairs):
    """Relational g . f by direct enumeration of middles."""
    return {(x, z) for (x, y1) in f_pairs for (y2, z) in g_pairs if y1 == y2}


def orbit_trace(mapping, x_size, y_size, u_size):
    """Pointwise trace of a partial injection given as a dict on indices."""
    out = {}
    for x in range(x_size):
        position = mapping.get(x)
        visited = set()
        while position is not None and position >= y_size:
            u_index = position - y_size
            if u_index in visited:
                position = None
                break
            visited.add(u_index)
            position = mapping.get(x_size + u_index)
        if position is not None and position < y_size:
            out[x] = position
    return out


def complement(f):
    """The relation holding exactly where ``f`` does not: it reverses the
    order, so the sensitivity tests use it to break laws."""
    mask = (1 << f.dst.size) - 1
    return type(f)(f.src, f.dst, tuple(mask ^ row for row in f.rows))


def term_size(t):
    """The number of nodes of the term ``t``."""
    return sum(1 for _ in subterms(t))


def all_relations(n, m):
    """Every subset of [n] x [m] as a frozenset of pairs."""
    cells = list(product(range(n), range(m)))
    for bits in range(1 << len(cells)):
        yield frozenset(cells[i] for i in range(len(cells)) if bits >> i & 1)


def transpose_rows(rows, width):
    """Rows of the converse of a bit-row relation, read off bit by bit."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in range(width):
            if row >> j & 1:
                cols[j] |= 1 << i
    return tuple(cols)


def compose_rows(g_rows, f_rows):
    """Rows of g . f for bit-row relations: or the rows of g that each row of
    f selects, peeling off its lowest set bit each time."""
    rows = []
    for row in f_rows:
        acc = 0
        while row:
            low = row & -row
            acc |= g_rows[low.bit_length() - 1]
            row ^= low
        rows.append(acc)
    return tuple(rows)


def relational_trace(pairs, x_size, y_size, u_size):
    """Pointwise trace of a relation on X + U -> Y + U, as a set of pairs.

    (x, y) is in the trace when some path leaves x, walks through U any
    number of times (plain BFS over the U indices) and lands on y.
    """
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out = set()
    for x in range(x_size):
        frontier = list(succ.get(x, ()))
        visited = set()
        while frontier:
            position = frontier.pop()
            if position < y_size:
                out.add((x, position))
                continue
            u_index = position - y_size
            if u_index in visited:
                continue
            visited.add(u_index)
            frontier.extend(succ.get(x_size + u_index, ()))
    return out


# -- numpy reference for dstoch ----------------------------------------------


def stoch_valid(m, tolerance=1e-9):
    """Entries at least -tolerance, row and column sums at most 1 + tolerance."""
    m = np.asarray(m, dtype=float)
    if np.any(m < -tolerance):
        return False
    return not m.size or bool(
        np.all(m.sum(axis=1) <= 1 + tolerance) and np.all(m.sum(axis=0) <= 1 + tolerance)
    )


def stoch_compose(g, f):
    """g . f: run f first, so the product is f @ g."""
    return np.asarray(f, dtype=float) @ np.asarray(g, dtype=float)


def stoch_dagger(f):
    return np.asarray(f, dtype=float).T


def stoch_random(n, rng):
    """The matrix ``random_stoch`` draws from ``rng`` on n elements."""
    if n == 0:
        return np.zeros((0, 0))
    m = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    bound = max(m.sum(axis=1).max(), m.sum(axis=0).max())
    scale = rng.random()
    return m * (scale / bound)


def stoch_random_ordered_pair(n, rng):
    g = stoch_random(n, rng)
    damp = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    return g * damp, g


def stoch_random_chain(n, rng, length):
    target = stoch_random(n, rng)
    return [target * (1 - 0.5 ** k) for k in range(length)]


# -- recursive reference for revlang ------------------------------------------


class ReferenceEvaluator:
    """Fuel-indexed evaluation by direct recursion over the clauses."""

    def __init__(self, program):
        self.program = program
        self._inverted = {}

    def _definition(self, name, inverted):
        fdef = self.program.defs.get(name)
        if fdef is None:
            raise UnknownFunction(name)
        if not inverted:
            return fdef
        if name not in self._inverted:
            self._inverted[name] = invert_def(fdef)
        return self._inverted[name]

    def _resolve(self, ref, bindings):
        if ref.name in bindings:
            bound = bindings[ref.name]
            return dagger_ref(bound) if ref.inverted else bound
        return CallRef(
            ref.name, tuple(self._resolve(a, bindings) for a in ref.args), ref.inverted
        )

    def call(self, ref, value, fuel):
        if fuel <= 0:
            return UNDEFINED
        fdef = self._definition(ref.name, ref.inverted)
        if len(ref.args) != len(fdef.params):
            raise UnboundParameter(f"{ref.name} expects {len(fdef.params)} static argument(s)")
        bindings = dict(zip(fdef.params, ref.args))
        for clause in fdef.clauses:
            env = match(clause.lhs, value)
            if env is None:
                continue
            for step in clause.lets:
                argument = instantiate(step.arg, env)
                result = self.call(self._resolve(step.callee, bindings), argument, fuel - 1)
                if result is UNDEFINED or result is STUCK:
                    return result
                env = match(step.pattern, result, env)
                if env is None:
                    return STUCK
            return instantiate(clause.out, env)
        return STUCK


def reference_repr(t):
    """``repr(t)``: the class name, then the fields in parentheses."""
    values = [getattr(t, f.name) for f in fields(t)]
    if not values:
        return type(t).__name__
    inner = ", ".join(v if isinstance(v, str) else reference_repr(v) for v in values)
    return f"{type(t).__name__}({inner})"


def reference_show(t, atomic=False):
    """``show_term(t, atomic)``: concrete syntax, constructor arguments in
    parentheses where they take arguments themselves."""
    if isinstance(t, Atom):
        return f"'{t.name}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Pair):
        return f"({reference_show(t.left)}, {reference_show(t.right)})"
    kids = [getattr(t, f.name) for f in fields(t)]
    if not kids:
        return type(t).__name__
    text = " ".join([type(t).__name__, *(reference_show(k, atomic=True) for k in kids)])
    return f"({text})" if atomic else text


# -- plain nested loop for naturality -----------------------------------------


def reference_naturality(family, x, xp, y, yp, fuel=10):
    """``check_naturality`` as one loop over (u, v, p, h) that recomputes
    every transport, application and fixed point at each instance."""
    checker = Checker("naturality")
    alpha = family.component(x, y)
    alpha_p = family.component(xp, yp)
    arg1, par1 = alpha.arg_space, alpha.param_space
    F, G = family.F, family.G

    def transport(v, m, u):
        return compose(v, compose(m, u))

    u_homs = HomSpace(family.category, xp, x).morphisms()
    v_homs = HomSpace(family.category, y, yp).morphisms()
    h_homs = arg1.morphisms()
    p_homs = par1.morphisms()
    bot1 = arg1.bottom
    bot2 = HomSpace(family.category, F.apply_obj(xp), F.apply_obj(yp)).bottom

    for u in u_homs:
        fu, gu = F.apply_mor(u), G.apply_mor(u)
        for v in v_homs:
            fv, gv = F.apply_mor(v), G.apply_mor(v)
            for p in p_homs:
                p_t = transport(gv, p, gu)

                for h in h_homs:
                    try:
                        lhs = apply_param(alpha_p, transport(fv, h, fu), p_t)
                        rhs = transport(fv, apply_param(alpha, h, p), fu)
                    except IncompatibleJoin:
                        checker.skip("family-square")
                        continue
                    checker.check(
                        "family-square",
                        lhs == rhs,
                        "u={0!r} v={1!r} h={2!r} p={3!r}",
                        u, v, h, p,
                    )

                a, b = bot1, bot2
                ok = True
                try:
                    for n in range(1, fuel + 1):
                        a = apply_param(alpha, a, p)
                        b = apply_param(alpha_p, b, p_t)
                        checker.check(
                            "iterate-square",
                            b == transport(fv, a, fu),
                            "n={0} u={1!r} v={2!r} p={3!r}",
                            n, u, v, p,
                        )
                except IncompatibleJoin:
                    checker.skip("iterate-square")
                    ok = False

                if ok:
                    try:
                        lhs = pfix_functional(alpha_p, p_t)
                        rhs = transport(fv, pfix_functional(alpha, p), fu)
                    except IncompatibleJoin:
                        checker.skip("pfix-square")
                        continue
                    checker.check(
                        "pfix-square",
                        lhs == rhs,
                        "u={0!r} v={1!r} p={2!r}",
                        u, v, p,
                    )
    return checker.done()
