"""Example programs the tests run.  ``ADD`` and ``MAP`` have the same text
as ``bench/programs/add.rvl`` and ``map.rvl``."""
from revcat.revlang import Program, parse_program

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

BUNDLED = {"swap": SWAP, "add": ADD, "map": MAP}


def bundled_program(name: str) -> Program:
    return parse_program(BUNDLED[name])
