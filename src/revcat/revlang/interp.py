"""Fuel-indexed evaluator.

Fuel counts unfolding depth: entering any call consumes one unit, and
every let in a clause runs its call at the entry fuel minus one.  Fuel 0
is everywhere undefined, so evaluation at fuel n is exactly the n-th
approximant of the program's semantics from below.

Undefined (fuel ran out) is distinct from Stuck (no clause matched, or a
let pattern rejected a call result): more fuel can resolve the former,
never the latter.

An ``Evaluator`` compiles each closed reference the first time it is
called: its definition, in its direction, with the static arguments bound
into every callee.  Every pattern becomes a matcher closure that binds
into the clause's environment in place, and every let argument and output
becomes a builder closure.  ``Evaluator.call`` runs on an explicit stack
of frames, so the depth of a computation is bounded by memory, not by
Python's recursion limit.

Evaluation is deterministic and the approximants ascend, so a call's
outcome depends only on its reference and value, and it is defined at
fuel n exactly when n reaches the least fuel it needs.  Each
``Evaluator`` keeps a call table of these facts, and every call, top-level
or nested, is answered from it when it can be.  A call is evaluated again
only at a fuel above every fuel it has failed at, and the answers are the
same as without the table at every fuel.
"""
from __future__ import annotations

from operator import itemgetter

from ..errors import UnboundParameter, UnknownFunction
from .invert import invert_def
from .syntax import CallRef, Cons, Pair, Program, S, Term, Var, dagger_ref, is_value, map_ref
from .validate import check_ref


class _Undefined:
    def __repr__(self):
        return "Undefined"


class _Stuck:
    def __repr__(self):
        return "Stuck"


UNDEFINED = _Undefined()
STUCK = _Stuck()
# The call table's answer for a call it has not seen: undefined at fuel 0.
_UNSEEN = (UNDEFINED, 0)


def _matcher(p: Term, bound: set[str]):
    """A closure ``m(v, env) -> bool`` that tests ``v`` against ``p``.

    Terms are interned, so a subpattern with no variables matches only
    itself.  The first occurrence of a variable binds it in ``env``; a
    variable in ``bound``, bound earlier in the clause, must be the value
    bound to it, so a non-linear pattern matches as ``syntax.match`` does.
    """
    if is_value(p):
        return lambda v, env: v is p
    cls = type(p)
    if cls is Var:
        name = p.name
        if name in bound:
            return lambda v, env: env[name] is v
        bound.add(name)

        def bind(v, env):
            env[name] = v
            return True

        return bind
    if cls is S:
        arg = _matcher(p.arg, bound)
        return lambda v, env: type(v) is S and arg(v.arg, env)
    if cls is Cons:
        head = _matcher(p.head, bound)
        tail = _matcher(p.tail, bound)
        return lambda v, env: type(v) is Cons and head(v.head, env) and tail(v.tail, env)
    left = _matcher(p.left, bound)
    right = _matcher(p.right, bound)
    return lambda v, env: type(v) is Pair and left(v.left, env) and right(v.right, env)


def _builder(t: Term):
    """A closure ``b(env) -> Term`` that instantiates ``t``; a subterm with
    no variables is returned as the same object."""
    if is_value(t):
        return lambda env: t
    cls = type(t)
    if cls is Var:
        return itemgetter(t.name)
    if cls is S:
        arg = _builder(t.arg)
        return lambda env: S(arg(env))
    if cls is Cons:
        head, tail = _builder(t.head), _builder(t.tail)
        return lambda env: Cons(head(env), tail(env))
    left, right = _builder(t.left), _builder(t.right)
    return lambda env: Pair(left(env), right(env))


def _bind(ref: CallRef, bindings: dict[str, CallRef]) -> CallRef:
    """``ref``, a callee in a definition, with the definition's static
    parameters replaced by the closed references bound to them; ``p~``
    becomes the inverse of what ``p`` is bound to."""

    def leaf(r: CallRef) -> CallRef | None:
        if r.name in bindings:
            return dagger_ref(bindings[r.name]) if r.inverted else bindings[r.name]
        return None

    return map_ref(ref, leaf, lambda r, args: CallRef(r.name, args, r.inverted))


def closed_ref(program: Program, ref: CallRef, bindings: dict[str, CallRef] | None = None):
    """``ref`` with its static parameters bound, inline (``map<inc>``) or by
    ``bindings`` but not both, then checked whole as the validator checks
    a call, so that evaluating it needs no further check."""
    fdef = program.defs.get(ref.name)
    if fdef is None:
        raise UnknownFunction(f"unknown function {ref.name!r}")
    if bindings:
        if ref.args:
            raise UnboundParameter(f"give {ref.name}'s static arguments inline or bound, not both")
        missing = [p for p in fdef.params if p not in bindings]
        if missing:
            raise UnboundParameter(f"missing binding(s) for: {', '.join(missing)}")
        unknown = [p for p in bindings if p not in fdef.params]
        if unknown:
            raise UnboundParameter(f"{ref.name} has no parameter(s): {', '.join(unknown)}")
        ref = CallRef(ref.name, tuple(bindings[p] for p in fdef.params), ref.inverted)
    errors: list[Exception] = []
    check_ref(ref, program, (), errors.append)
    if errors:
        raise errors[0]
    return ref


class Evaluator:
    def __init__(self, program: Program):
        self.program = program
        # Closed reference -> (clauses, its row of the call table).  Each
        # clause is (lhs matcher, steps, output builder) and each step is
        # (argument builder, closed callee, pattern matcher).  The row maps
        # value -> (outcome, least fuel it needs), or (UNDEFINED, largest
        # fuel seen to fail) for a call not yet defined.
        self._compiled: dict[CallRef, tuple] = {}

    def _compile(self, ref: CallRef) -> tuple:
        fdef = self.program.defs.get(ref.name)
        if fdef is None:
            raise UnknownFunction(f"unknown function {ref.name!r}")
        if ref.inverted:
            fdef = invert_def(fdef)
        bindings = dict(zip(fdef.params, ref.args))
        clauses = []
        for clause in fdef.clauses:
            bound: set[str] = set()
            lhs = _matcher(clause.lhs, bound)
            steps = tuple(
                (_builder(s.arg), _bind(s.callee, bindings), _matcher(s.pattern, bound))
                for s in clause.lets
            )
            clauses.append((lhs, steps, _builder(clause.out)))
        self._compiled[ref] = code = (tuple(clauses), {})
        return code

    def call(self, ref: CallRef, value: Term, fuel: int):
        """Run ``ref`` on ``value``: a term, ``UNDEFINED`` or ``STUCK``.

        ``ref`` must come from ``closed_ref``: then, in a valid program,
        every callee gets as many static arguments as it takes.

        A call the table holds as ``(outcome, need)`` is answered
        ``outcome`` at fuel ``need`` or more and ``UNDEFINED`` below; one it
        holds as ``(UNDEFINED, failed)`` is answered ``UNDEFINED`` at fuel
        ``failed`` or less.  Any other call is evaluated.  A call that needs
        no let needs fuel 1, whether a clause matches or none does; one with
        lets needs one more than the most any let it ran needed, the let
        that got ``STUCK`` included.

        Each frame is ``[steps, i, env, out, fuel, row, value, need]``: a
        clause waiting for the result of its let ``steps[i]``, its table row
        and value, and the most its lets so far needed.  A result passes up
        the stack, and each frame it ends is recorded as it unwinds:
        ``UNDEFINED`` makes every frame undefined at its own fuel, and
        ``STUCK`` makes every frame ``STUCK``.
        """
        compiled = self._compiled
        frames: list[list] = []
        while True:
            if fuel <= 0:
                result = UNDEFINED
            else:
                clauses, row = compiled.get(ref) or self._compile(ref)
                result, need = row.get(value, _UNSEEN)
                if result is UNDEFINED and fuel > need:
                    for lhs, steps, out in clauses:
                        env = {}
                        if lhs(value, env):
                            break
                    else:
                        steps = None
                    if steps:
                        frames.append([steps, 0, env, out, fuel, row, value, 0])
                        result = None
                    else:
                        result = STUCK if steps is None else out(env)
                        need = 1
                        row[value] = (result, 1)
                elif fuel < need:
                    result = UNDEFINED
            while result is not None:
                if not frames:
                    return result
                frame = frames[-1]
                if result is UNDEFINED:
                    entry = (UNDEFINED, frame[4])
                else:
                    if need > frame[7]:
                        frame[7] = need
                    steps, i, env = frame[0], frame[1], frame[2]
                    if result is STUCK or not steps[i][2](result, env):
                        result = STUCK
                    elif i + 1 < len(steps):
                        frame[1] = i + 1
                        break
                    else:
                        result = frame[3](env)
                    need = frame[7] + 1
                    entry = (result, need)
                frames.pop()
                frame[5][frame[6]] = entry
            frame = frames[-1]
            arg, ref, _ = frame[0][frame[1]]
            value = arg(frame[2])
            fuel = frame[4] - 1
