"""Example programs the tests run.  ``ADD`` and ``MAP`` have the same text
as ``bench/programs/add.rvl`` and ``map.rvl``."""
from revcat.revlang.parser import parse_program
from revcat.revlang.syntax import Program

SWAP = """\
fun swap (a, b) = (b, a)
"""

ADD = """\
-- (x, y) to (x, x + y)
fun add (Z, y) = (Z, y)
fun add (S x, y) = let (x2, y2) = add (x, y) in (S x2, S y2)
"""

MAP = """\
fun inc x = S x
fun map<g> Nil = Nil
fun map<g> (Cons x xs) = let y = g x in let ys = map<g> xs in Cons y ys
"""

# Three programs whose static argument grows by one ``map<...>`` per call,
# so the references they call are built at run time, as deep as the input.
# ``f<inc>`` is the identity on its input in each.
# (a) The argument is inverted at every level: ``g`` at depth n is
# ``map<map~<...>>``, and each call inverts the one before.
GROW_INVERTED = MAP + """\
fun f<g> Z = Z
fun f<g> (S x) = let y = f<map<g~>> x in S y
"""
# (b) Pure growth, on ``(S^n Z, Nil)``.
GROW = MAP + """\
fun f<g> (Z, xs) = (Z, xs)
fun f<g> (S n, xs) = let (m, ys) = f<map<g>> (n, xs) in (S m, ys)
"""
# (c) As (b), but the deepest argument is first inverted at the base.
GROW_INVERTED_AT_BASE = MAP + """\
fun h<g> xs = let ys = g~ xs in ys
fun f<g> (Z, xs) = let ys = h<g> xs in (Z, ys)
fun f<g> (S n, xs) = let (m, ys) = f<map<g>> (n, xs) in (S m, ys)
"""

BUNDLED = {"swap": SWAP, "add": ADD, "map": MAP}


def bundled_program(name: str) -> Program:
    return parse_program(BUNDLED[name])
