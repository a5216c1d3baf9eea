"""Static checks that make every definition denote a partial injection.

Per clause: linearity (each variable bound exactly once and used exactly
once, bindings before uses), and per definition: pairwise non-unifiable
left-hand sides and outputs, so clause selection is unambiguous in both
directions.  Name and arity resolution for calls and static arguments is
checked here too.
"""
from __future__ import annotations

from ..errors import RevcatError, UnboundParameter, UnknownFunction
from ..record import frozen
from .syntax import CallRef, Clause, FuncDef, Program, term_atoms, term_vars, unifiable


@frozen
class Issue:
    function: str
    clause: int  # 1-based; 0 for definition-level issues
    message: str

    def __str__(self):
        where = f"{self.function}" + (f"#{self.clause}" if self.clause else "")
        return f"{where}: {self.message}"


def check_ref(ref: CallRef, program: Program, params: tuple[str, ...], add) -> None:
    """Pass ``add`` an error, in textual order, for each undefined name and
    wrong static argument count in ``ref``, a call in a definition with ``params``."""
    stack = [ref]
    while stack:
        ref = stack.pop()
        if ref.name in params:
            if ref.args:
                add(UnboundParameter(f"parameter {ref.name!r} cannot take static arguments"))
            continue
        target = program.defs.get(ref.name)
        if target is None:
            add(UnknownFunction(f"unknown function {ref.name!r}"))
            continue
        if len(ref.args) != len(target.params):
            add(UnboundParameter(f"call to {ref.name!r} passes {len(ref.args)} static "
                                 f"argument(s), expected {len(target.params)}"))
        stack += reversed(ref.args)


def _check_clause(fdef: FuncDef, index: int, clause: Clause, program: Program, issues: list[Issue]) -> None:
    def add(message: str | Exception) -> None:
        issues.append(Issue(fdef.name, index, str(message)))

    bound: list[str] = list(term_vars(clause.lhs))
    used: list[str] = []
    available = set(bound)
    if len(bound) != len(set(bound)):
        add("left-hand pattern binds a variable twice")

    for step in clause.lets:
        for v in term_vars(step.arg):
            used.append(v)
            if v not in available:
                add(f"variable {v!r} used before being bound")
        check_ref(step.callee, program, fdef.params, add)
        step_vars = term_vars(step.pattern)
        for v in step_vars:
            if v in available:
                add(f"variable {v!r} bound twice")
            bound.append(v)
            available.add(v)
        if len(step_vars) != len(set(step_vars)):
            add("let pattern binds a variable twice")

    for v in term_vars(clause.out):
        used.append(v)
        if v not in available:
            add(f"variable {v!r} used before being bound")

    if len(used) != len(set(used)):
        duplicated = sorted({v for v in used if used.count(v) > 1})
        add(f"variable(s) used more than once: {', '.join(duplicated)}")
    unused = sorted(set(bound) - set(used))
    if unused:
        add(f"variable(s) bound but never used: {', '.join(unused)}")

    declared = set(program.atoms)
    for term in [clause.lhs, clause.out, *[s.pattern for s in clause.lets], *[s.arg for s in clause.lets]]:
        for a in sorted(term_atoms(term) - declared):
            add(f"atom '{a} is not declared")


def validate_program(program: Program) -> list[Issue]:
    """The issues of ``program``, in the order they are found; none if it is valid."""
    issues: list[Issue] = []
    for fdef in program.defs.values():
        def add_def(message: str, fdef=fdef) -> None:
            issues.append(Issue(fdef.name, 0, message))

        if len(set(fdef.params)) != len(fdef.params):
            add_def("duplicate parameter names")
        for p in fdef.params:
            if p in program.defs:
                add_def(f"parameter {p!r} shadows a defined function")

        for i, clause in enumerate(fdef.clauses, start=1):
            _check_clause(fdef, i, clause, program, issues)

        for i in range(len(fdef.clauses)):
            for j in range(i + 1, len(fdef.clauses)):
                if unifiable(fdef.clauses[i].lhs, fdef.clauses[j].lhs):
                    add_def(f"clauses {i + 1} and {j + 1} have overlapping inputs")
                if unifiable(fdef.clauses[i].out, fdef.clauses[j].out):
                    add_def(f"clauses {i + 1} and {j + 1} have overlapping outputs")
    return issues


class ValidationFailed(RevcatError):
    pass


def require_valid(program: Program) -> Program:
    """``program`` itself, if it validates; else raise ``ValidationFailed``."""
    issues = validate_program(program)
    if issues:
        raise ValidationFailed("\n".join(map(str, issues)))
    return program
