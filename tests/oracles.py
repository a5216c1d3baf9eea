"""Independent oracles used to freeze expected values.

Everything here is deliberately computed without the library's morphism
algebra: plain graph search, counting formulas, closed forms, and
pointwise orbit walks.
"""
from itertools import product
from math import comb, factorial


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
