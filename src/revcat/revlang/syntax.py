"""Terms, patterns, and program structure for the reversible language.

One constructor-term type serves both values (variable-free terms) and
patterns.  Programs are clause-based: every clause has a left pattern, an
ordered chain of let-bound calls, and an output pattern.  Calls reference
defined functions or static function parameters, optionally carrying
static arguments and an inversion mark (written ``~``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Z(Term):
    def __repr__(self):
        return "Z"


@dataclass(frozen=True)
class S(Term):
    arg: Term

    def __repr__(self):
        return f"S({self.arg!r})"


@dataclass(frozen=True)
class Nil(Term):
    def __repr__(self):
        return "Nil"


@dataclass(frozen=True)
class Cons(Term):
    head: Term
    tail: Term

    def __repr__(self):
        return f"Cons({self.head!r}, {self.tail!r})"


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term

    def __repr__(self):
        return f"Pair({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class Atom(Term):
    name: str

    def __repr__(self):
        return f"Atom({self.name})"


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self):
        return f"Var({self.name})"


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, S):
        return (t.arg,)
    if isinstance(t, Cons):
        return (t.head, t.tail)
    if isinstance(t, Pair):
        return (t.left, t.right)
    return ()


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    if isinstance(t, S):
        return S(kids[0])
    if isinstance(t, Cons):
        return Cons(kids[0], kids[1])
    if isinstance(t, Pair):
        return Pair(kids[0], kids[1])
    return t


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in children(t))


def term_vars(t: Term) -> list[str]:
    """Variable names in textual order (with repetitions, if any)."""
    if isinstance(t, Var):
        return [t.name]
    out: list[str] = []
    for c in children(t):
        out.extend(term_vars(c))
    return out


def term_atoms(t: Term) -> set[str]:
    if isinstance(t, Atom):
        return {t.name}
    out: set[str] = set()
    for c in children(t):
        out |= term_atoms(c)
    return out


def is_value(t: Term) -> bool:
    return not term_vars(t)


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


@dataclass(frozen=True)
class CallRef:
    """Reference to a function: a defined name or an in-scope parameter,
    with optional static arguments and an inversion mark."""

    name: str
    args: tuple["CallRef", ...] = ()
    inverted: bool = False

    def __repr__(self):
        return f"CallRef({show_callref(self)!r})"


def dagger_ref(ref: CallRef) -> CallRef:
    """Reference to the inverse function: toggle the mark, invert the
    static arguments (a parametrized call inverts with inverted parameters)."""
    return CallRef(ref.name, tuple(dagger_ref(a) for a in ref.args), not ref.inverted)


@dataclass(frozen=True)
class LetStep:
    pattern: Term
    callee: CallRef
    arg: Term


@dataclass(frozen=True)
class Clause:
    lhs: Term
    lets: tuple[LetStep, ...]
    out: Term
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple[str, ...]
    clauses: tuple[Clause, ...]
    line: int = field(default=0, compare=False)


@dataclass
class Program:
    atoms: tuple[str, ...] = ()
    defs: dict[str, FuncDef] = field(default_factory=dict)

    def define(self, fdef: FuncDef) -> None:
        if fdef.name in self.defs:
            existing = self.defs[fdef.name]
            if existing.params != fdef.params:
                raise ValueError(f"conflicting parameter lists for {fdef.name}")
            self.defs[fdef.name] = FuncDef(
                fdef.name,
                fdef.params,
                existing.clauses + fdef.clauses,
                existing.line,
            )
        else:
            self.defs[fdef.name] = fdef


# -- concrete syntax out -----------------------------------------------------


def show_term(t: Term, atomic: bool = False) -> str:
    if isinstance(t, Z):
        return "Z"
    if isinstance(t, Nil):
        return "Nil"
    if isinstance(t, Atom):
        return f"'{t.name}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Pair):
        return f"({show_term(t.left)}, {show_term(t.right)})"
    if isinstance(t, S):
        text = f"S {show_term(t.arg, atomic=True)}"
    elif isinstance(t, Cons):
        text = f"Cons {show_term(t.head, atomic=True)} {show_term(t.tail, atomic=True)}"
    else:
        raise TypeError(f"not a term: {t!r}")
    return f"({text})" if atomic else text


def show_callref(ref: CallRef) -> str:
    text = ref.name
    if ref.args:
        text += "<" + ", ".join(show_callref(a) for a in ref.args) + ">"
    if ref.inverted:
        text += "~"
    return text


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


# -- alpha-equivalence -------------------------------------------------------


def _canonical_clause(clause: Clause) -> Clause:
    mapping: dict[str, str] = {}

    def canon(t: Term) -> Term:
        if isinstance(t, Var):
            if t.name not in mapping:
                mapping[t.name] = f"v{len(mapping)}"
            return Var(mapping[t.name])
        return rebuild(t, tuple(canon(c) for c in children(t)))

    lhs = canon(clause.lhs)
    lets = tuple(
        LetStep(canon(s.pattern), s.callee, canon(s.arg)) for s in clause.lets
    )
    return Clause(lhs, lets, canon(clause.out))


def alpha_equivalent(p1: Program, p2: Program) -> bool:
    """Structural equality up to consistent renaming of clause variables."""
    if tuple(p1.atoms) != tuple(p2.atoms):
        return False
    if list(p1.defs) != list(p2.defs):
        return False
    for name in p1.defs:
        d1, d2 = p1.defs[name], p2.defs[name]
        if d1.params != d2.params or len(d1.clauses) != len(d2.clauses):
            return False
        for c1, c2 in zip(d1.clauses, d2.clauses):
            if _canonical_clause(c1) != _canonical_clause(c2):
                return False
    return True
