"""Clause-local program inversion.

A clause runs its input through the left pattern, a chain of calls, and
the output pattern; the inverse clause swaps the two patterns, reverses
the chain, and swaps each step's pattern with its argument while pointing
the step at the inverse of what it called.  Because inputs and outputs of
distinct clauses are both pairwise non-overlapping, the result is again a
valid program.

``invert_def`` keeps each name and flips each call's mark (``dagger_ref``);
``invert_program`` renames each ``f`` to ``f_inv`` (``SUFFIX``) and keeps the
marks, as ``invert_binding`` does for a binding.

Parameter references are left untouched: the caller of an inverted
definition binds inverted functions, so the flip happens at binding time.
"""
from __future__ import annotations

from typing import Callable, Collection

from ..errors import InvalidArgument, UnknownFunction
from .parser import KEYWORDS
from .syntax import CallRef, Clause, FuncDef, LetStep, Program, dagger_ref, map_ref

# The suffix that names each definition's inverse, unless another is given.
SUFFIX = "_inv"


def toggle_suffix(name: str, suffix: str = SUFFIX) -> str:
    if name.endswith(suffix) and len(name) > len(suffix):
        return name[: -len(suffix)]
    return name + suffix


def _backwards(fdef: FuncDef, name: str, inverse: Callable[[CallRef], CallRef]) -> FuncDef:
    """``fdef`` run backwards under ``name``: each step calls ``inverse(callee)``."""
    clauses = []
    for c in fdef.clauses:
        lets = tuple(LetStep(s.arg, inverse(s.callee), s.pattern) for s in reversed(c.lets))
        clauses.append(Clause(c.out, lets, c.lhs, c.line))
    return FuncDef(name, fdef.params, tuple(clauses), fdef.line)


def invert_def(fdef: FuncDef) -> FuncDef:
    """Inverse definition under the original name, used for marked calls."""
    return _backwards(fdef, fdef.name, lambda ref: dagger_ref(ref, fdef.params))


def _renamed(ref: CallRef, program: Program, params: Collection[str], suffix: str) -> CallRef:
    """The inverse of ``ref`` in the inverted program: every defined name
    toggles its suffix, each mark stays, and names in ``params`` stay."""

    def leaf(r: CallRef) -> CallRef | None:
        if r.name in params:
            return r
        if r.name not in program.defs:
            raise UnknownFunction(f"unknown function {r.name!r}")
        return None

    return map_ref(ref, leaf, lambda r, args: CallRef(toggle_suffix(r.name, suffix), args, r.inverted))


def invert_program(program: Program, suffix: str = SUFFIX) -> Program:
    """``program`` inverted, each ``f`` renamed to ``f`` + ``suffix`` and each
    ``f`` + ``suffix`` to ``f``.  The suffix must be name characters and the
    renaming must undo itself and make no keyword, so that the result parses
    and inverts back to ``program``."""
    if not suffix or not all(ch.isalnum() or ch == "_" for ch in suffix):
        raise InvalidArgument(f"suffix must be letters, digits and _, got {suffix!r}")
    inverted = Program(atoms=program.atoms)
    for fdef in program.defs.values():
        name = toggle_suffix(fdef.name, suffix)
        if name in KEYWORDS:
            raise InvalidArgument(f"cannot invert {fdef.name!r}: its inverse would be "
                                  f"named {name!r}, a keyword")
        # Renaming twice must give each name back; then no two names meet.
        if toggle_suffix(name, suffix) != fdef.name:
            raise InvalidArgument(f"cannot invert {fdef.name!r}: it ends in {suffix!r} twice, "
                                  f"so {name!r} would not invert back to it")
        inverted.defs[name] = _backwards(
            fdef, name, lambda ref: _renamed(ref, program, fdef.params, suffix)
        )
    return inverted


def invert_binding(ref: CallRef, program: Program) -> CallRef:
    """The binding to hand to an inverted definition so that it computes the
    inverse of the original instantiation: the inverse of each bound function,
    named in the program inverted with the default suffix, ``SUFFIX``."""
    return _renamed(ref, program, (), SUFFIX)
