"""Clause-local program inversion.

A clause runs its input through the left pattern, a chain of calls, and
the output pattern; the inverse clause swaps the two patterns, reverses
the chain, and swaps each step's pattern with its argument while flipping
the direction of the called function.  Because inputs and outputs of
distinct clauses are both pairwise non-overlapping, the result is again a
valid program.

Parameter references are left untouched: the caller of an inverted
definition binds inverted functions, so the flip happens at binding time.
"""
from __future__ import annotations

from ..errors import UnknownFunction
from .syntax import CallRef, Clause, FuncDef, LetStep, Program


def toggle_suffix(name: str, suffix: str = "_inv") -> str:
    if name.endswith(suffix) and len(name) > len(suffix):
        return name[: -len(suffix)]
    return name + suffix


def _flip_ref(ref: CallRef, params: tuple[str, ...]) -> CallRef:
    """Point a step at the inverse of what it called (unrenamed form)."""
    if ref.name in params:
        return ref
    return CallRef(
        ref.name,
        tuple(_flip_ref(a, params) for a in ref.args),
        not ref.inverted,
    )


def invert_clause(clause: Clause, params: tuple[str, ...]) -> Clause:
    lets = tuple(
        LetStep(step.arg, _flip_ref(step.callee, params), step.pattern)
        for step in reversed(clause.lets)
    )
    return Clause(clause.out, lets, clause.lhs, clause.line)


def invert_def(fdef: FuncDef) -> FuncDef:
    """Inverse definition under the original name, used for marked calls."""
    return FuncDef(
        fdef.name,
        fdef.params,
        tuple(invert_clause(c, fdef.params) for c in fdef.clauses),
        fdef.line,
    )


def _rename_ref(ref: CallRef, params: tuple[str, ...], suffix: str) -> CallRef:
    """Rewrite a flipped reference against the renamed definitions: a marked
    call to f is an unmarked call to f_inv, and vice versa."""
    if ref.name in params:
        return ref
    return CallRef(
        toggle_suffix(ref.name, suffix),
        tuple(_rename_ref(a, params, suffix) for a in ref.args),
        not ref.inverted,
    )


def invert_program(program: Program, suffix: str = "_inv") -> Program:
    inverted = Program(atoms=program.atoms)
    for fdef in program.defs.values():
        clauses = []
        for clause in fdef.clauses:
            flipped = invert_clause(clause, fdef.params)
            lets = tuple(
                LetStep(s.pattern, _rename_ref(s.callee, fdef.params, suffix), s.arg)
                for s in flipped.lets
            )
            clauses.append(Clause(flipped.lhs, lets, flipped.out, clause.line))
        inverted.defs[toggle_suffix(fdef.name, suffix)] = FuncDef(
            toggle_suffix(fdef.name, suffix), fdef.params, tuple(clauses), fdef.line
        )
    return inverted


def invert_binding(ref: CallRef, program: Program, suffix: str = "_inv") -> CallRef:
    """The binding to hand to an inverted definition so that it computes the
    inverse of the original instantiation: the inverse of each bound function,
    named in the renamed program."""
    if ref.name in program.defs:
        return CallRef(
            toggle_suffix(ref.name, suffix),
            tuple(invert_binding(a, program, suffix) for a in ref.args),
            ref.inverted,
        )
    raise UnknownFunction(f"binding references unknown function {ref.name!r}")
