"""Terms, patterns, and program structure for the reversible language.

One constructor-term type serves both values (variable-free terms) and
patterns.  A term's children are its ``Term``-typed fields, in order;
``Atom`` and ``Var`` hold a name.  Terms are interned, one object per
value, built by ``record.interned``, so ``==`` and ``hash`` are identity;
walks over a term and its printing run on explicit stacks, so a value may
nest any depth.  ``CONSTRUCTORS`` lists the classes the concrete syntax
names.

Programs are clause-based: every clause has a left pattern, an ordered
chain of let-bound calls, and an output pattern.  Calls reference defined
functions or static function parameters, optionally carrying static
arguments and an inversion mark (written ``~``); a reference is interned
as a term is.
"""
from __future__ import annotations

from typing import Collection, Optional

from ..errors import ParseError
from ..record import frozen, interned


class Term:
    """A constructor term.  Each class interns its terms, so there is one
    object per class and field values: terms compare and hash by identity.
    A class's ``child_fields`` are its fields annotated ``"Term"``
    (annotations are strings under ``from __future__``)."""

    __slots__ = ()

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls.child_fields = tuple(name for name, kind in own.items() if kind == "Term")

    def __repr__(self):
        return _text(self, _repr_layout)


@interned
class Z(Term):
    __slots__ = ()


@interned
class S(Term):
    __slots__ = ("arg",)
    arg: Term


@interned
class Nil(Term):
    __slots__ = ()


@interned
class Cons(Term):
    __slots__ = ("head", "tail")
    head: Term
    tail: Term


@interned
class Pair(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term


@interned
class Atom(Term):
    __slots__ = ("name",)
    name: str


@interned
class Var(Term):
    __slots__ = ("name",)
    name: str


# The constructors of the concrete syntax, by name; their arity is the
# number of their child fields.
CONSTRUCTORS = {cls.__name__: cls for cls in (Z, S, Nil, Cons, Pair)}


def children(t: Term) -> tuple[Term, ...]:
    return tuple([getattr(t, name) for name in t.child_fields])


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    return type(t)(*kids) if kids else t


def subterms(t: Term):
    """``t`` and every term below it, in textual order, on an explicit stack."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend([getattr(t, name) for name in reversed(t.child_fields)])


def term_vars(t: Term) -> list[str]:
    """Variable names in textual order (with repetitions, if any)."""
    return [s.name for s in subterms(t) if type(s) is Var]


def term_atoms(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if type(s) is Atom}


def is_value(t: Term) -> bool:
    return not any(type(s) is Var for s in subterms(t))


def match(pattern: Term, value: Term, env: Optional[dict] = None) -> Optional[dict]:
    """Bindings extending ``env`` if value matches, else None."""
    env = {} if env is None else dict(env)
    stack = [(pattern, value)]
    while stack:
        p, v = stack.pop()
        if isinstance(p, Var):
            if p.name in env and env[p.name] != v:
                return None
            env[p.name] = v
        elif type(p) is type(v):
            if isinstance(p, Atom) and p.name != v.name:
                return None
            stack.extend(zip(children(p), children(v)))
        else:
            return None
    return env


def instantiate(pattern: Term, env: dict) -> Term:
    if isinstance(pattern, Var):
        return env[pattern.name]
    kids = tuple(instantiate(c, env) for c in children(pattern))
    return rebuild(pattern, kids)


def unifiable(p: Term, q: Term) -> bool:
    """Do the two patterns overlap on some ground value?  (Renamed apart.)

    Robinson unification: a variable is never bound to itself, nor to a
    term that contains it (no finite value solves x = S x).
    """
    subst: dict[str, Term] = {}

    def walk(t: Term) -> Term:
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        return t

    def rename(t: Term, prefix: str) -> Term:
        if isinstance(t, Var):
            return Var(prefix + t.name)
        return rebuild(t, tuple(rename(c, prefix) for c in children(t)))

    def occurs(name: str, t: Term) -> bool:
        t = walk(t)
        if isinstance(t, Var):
            return t.name == name
        return any(occurs(name, c) for c in children(t))

    def unify(a: Term, b: Term) -> bool:
        a, b = walk(a), walk(b)
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                return True
            if occurs(a.name, b):
                return False
            subst[a.name] = b
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return a.name == b.name
        return all(unify(x, y) for x, y in zip(children(a), children(b)))

    return unify(rename(p, "l:"), rename(q, "r:"))


# -- program structure -------------------------------------------------------


@interned
class CallRef:
    """Reference to a function: a defined name or an in-scope parameter,
    with optional static arguments and an inversion mark.  Interned."""

    name: str
    args: tuple["CallRef", ...] = ()
    inverted: bool = False

    def __repr__(self):
        return f"CallRef({show_callref(self)!r})"


def map_ref(ref: CallRef, leaf, node, images: Optional[dict] = None) -> CallRef:
    """The image of ``ref``, built on an explicit stack: ``leaf(r)``, called
    in textual order, or where that is None, ``node(r, images of r.args)``.
    The walk stops at references already in ``images`` and adds the rest,
    so it takes time linear in what is new in ``ref``, at any depth."""
    images = {} if images is None else images
    stack = [(ref, False)]
    while stack:
        top, ready = stack.pop()
        if ready:
            images[top] = node(top, tuple([images[a] for a in top.args]))
        elif top not in images:
            image = leaf(top)
            if image is None:
                stack.append((top, True))
                stack += [(a, False) for a in reversed(top.args)]
            else:
                images[top] = image
    return images[ref]


# Each reference ``dagger_ref`` has met, and its inverse, both ways.
_INVERSES: dict[CallRef, CallRef] = {}


def dagger_ref(ref: CallRef, params: Collection[str] = ()) -> CallRef:
    """Reference to the inverse function: toggle the mark, invert the
    static arguments (a parametrized call inverts with inverted parameters).
    A reference to a name in ``params`` is left as it is: inside a
    definition, the caller that binds a parameter decides its direction."""
    inverses = {} if params else _INVERSES

    def invert(top: CallRef, args: tuple) -> CallRef:
        inverse = CallRef(top.name, args, not top.inverted)
        inverses[inverse] = top
        return inverse

    return map_ref(ref, lambda r: r if r.name in params else None, invert, inverses)


@frozen
class LetStep:
    pattern: Term
    callee: CallRef
    arg: Term


@frozen
class Clause:
    _uncompared = ("line",)
    lhs: Term
    lets: tuple[LetStep, ...]
    out: Term
    line: int = 0


@frozen
class FuncDef:
    _uncompared = ("line",)
    name: str
    params: tuple[str, ...]
    clauses: tuple[Clause, ...]
    line: int = 0


class Program:
    """The atoms a program declares and its definitions by name; the parser
    and ``invert_program`` fill ``defs`` through ``define``."""

    def __init__(self, atoms: tuple[str, ...] = (), defs: Optional[dict[str, FuncDef]] = None):
        self.atoms = atoms
        self.defs = {} if defs is None else defs

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Program else NotImplemented

    def define(self, fdef: FuncDef) -> None:
        if fdef.name in self.defs:
            existing = self.defs[fdef.name]
            if existing.params != fdef.params:
                raise ParseError(f"conflicting parameter lists for {fdef.name}", fdef.line, 1)
            self.defs[fdef.name] = FuncDef(
                fdef.name,
                fdef.params,
                existing.clauses + fdef.clauses,
                existing.line,
            )
        else:
            self.defs[fdef.name] = fdef


# -- concrete syntax out -----------------------------------------------------


def _text(t, layout, atomic: bool = False) -> str:
    """Print ``t``, a term or a call reference, on an explicit stack.
    ``layout(t, atomic)`` lists the pieces of ``t``'s text: strings, and
    ``(child, atomic)`` pairs that print in their place."""
    out: list[str] = []
    stack: list = [(t, atomic)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack.extend(reversed(layout(*piece)))
    return "".join(out)


def _repr_layout(t: Term, atomic: bool) -> list:
    values = [getattr(t, name) for name in t._fields]
    if not values:
        return [type(t).__name__]
    pieces = [type(t).__name__ + "("]
    for value in values:
        pieces += [value if type(value) is str else (value, False), ", "]
    pieces[-1] = ")"
    return pieces


def _show_layout(t: Term, atomic: bool) -> list:
    cls = type(t)
    if cls is Atom:
        return ["'" + t.name]
    if cls is Var:
        return [t.name]
    if cls is Pair:
        return ["(", (t.left, False), ", ", (t.right, False), ")"]
    pieces = [cls.__name__]
    for kid in children(t):
        pieces += [" ", (kid, True)]
    return ["(", *pieces, ")"] if atomic and len(pieces) > 1 else pieces


def show_term(t: Term, atomic: bool = False) -> str:
    return _text(t, _show_layout, atomic)


def _ref_layout(ref: CallRef, atomic: bool) -> list:
    args = [piece for arg in ref.args for piece in (", ", (arg, False))]
    return [ref.name, *(["<", *args[1:], ">"] if args else []), "~" * ref.inverted]


def show_callref(ref: CallRef) -> str:
    return _text(ref, _ref_layout)


def show_clause(name: str, params: tuple[str, ...], clause: Clause) -> str:
    head = name
    if params:
        head += "<" + ", ".join(params) + ">"
    body = show_term(clause.out)
    for step in reversed(clause.lets):
        body = (
            f"let {show_term(step.pattern)} = {show_callref(step.callee)} "
            f"{show_term(step.arg, atomic=True)} in {body}"
        )
    return f"fun {head} {show_term(clause.lhs, atomic=True)} = {body}"


def show_program(program: Program) -> str:
    lines = []
    if program.atoms:
        lines.append("atom " + " ".join(program.atoms))
    for fdef in program.defs.values():
        for clause in fdef.clauses:
            lines.append(show_clause(fdef.name, fdef.params, clause))
    return "\n".join(lines) + "\n"
