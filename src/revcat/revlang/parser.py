"""Tokenizer and parser for the concrete syntax: recursive descent, except
that terms are parsed on an explicit stack, so a value may nest any depth.

    atom red green
    fun swap (a, b) = (b, a)
    fun add (Z, y) = (Z, y)
    fun add (S x, y) = let (x2, y2) = add (x, y) in (S x2, S y2)
    fun map<g> Nil = Nil
    fun map<g> (Cons x xs) = let y = g x in let ys = map<g> xs in Cons y ys

Line comments start with --.  Uppercase names are constructors (those
in ``syntax.CONSTRUCTORS``, each taking as many arguments as it has child
fields), lowercase names are variables or function names, 'name is an
atom literal, and a trailing ~ marks an inverse call.
"""
from __future__ import annotations

import re

from ..errors import ParseError
from .syntax import (
    CONSTRUCTORS,
    Atom,
    CallRef,
    Clause,
    FuncDef,
    LetStep,
    Pair,
    Program,
    Term,
    Var,
    is_value,
)

KEYWORDS = {"fun", "let", "in", "atom"}
# The deepest nesting of brackets in program text and call references.  The
# compiled matchers and builders and the walks over written references recurse
# once per level; values and references built at run time have no bound.
MAX_NESTING = 200

# One alternative per kind of lexeme; ``bad`` is any character no other
# alternative takes.  Names are letters, digits and _ (as str.isalnum), but
# start with a letter or _.  Comments take no columns: the end of input after
# one is reported where the comment starts.
_LEXEME = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>--[^\n]*)"
    r"|'(?P<atomlit>\w*)|(?P<word>\w+)|(?P<punct>[(),<>=~])|(?P<bad>.)",
    re.DOTALL,
)


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` for each token, kind being one of name,
    cons, atomlit, punct, and eof for the last."""
    tokens = []
    line, line_start = 1, 0
    m = None
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        if kind == "space" or kind == "comment":
            continue
        text = m[kind]
        col = m.start() - line_start + 1
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
            kind = "cons" if text[0].isupper() else "name"
        elif kind == "atomlit" and not text:
            raise ParseError("empty atom literal", line, col)
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append((kind, text, line, col))
    end = m.start() if m is not None and m.lastgroup == "comment" else len(source)
    tokens.append(("eof", "", line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    @property
    def text(self) -> str:
        return self.tokens[self.pos][1]

    def advance(self) -> str:
        """Step past the current token; its text."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def fail(self, message: str):
        _, _, line, col = self.tokens[self.pos]
        raise ParseError(message, line, col)

    def expect_punct(self, text: str) -> None:
        if self.kind != "punct" or self.text != text:
            self.fail(f"expected {text!r}, found {self.text!r}")
        self.advance()

    def expect_name(self) -> str:
        if self.kind != "name" or self.text in KEYWORDS:
            self.fail(f"expected a name, found {self.text!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def at_keyword(self, word: str) -> bool:
        return self.kind == "name" and self.text == word

    # -- terms -------------------------------------------------------------

    def parse_term(self, atomic: bool = False, limit: int | None = MAX_NESTING) -> Term:
        """A term, parsed on an explicit stack; with ``atomic``, one that can
        stand as a constructor's argument.  Parentheses nested deeper than
        ``limit`` are refused (None: no bound)."""
        # Open frames: [cls, args] gathers a constructor's arguments, and
        # [None, left] is a parenthesis, holding a pair's left once read.
        stack: list[list] = []
        parens = 0
        while True:
            kind, text, _, _ = self.tokens[self.pos]
            if kind == "cons":
                cls = CONSTRUCTORS.get(text)
                if cls is None:
                    self.fail(f"unknown constructor {text!r}")
                if cls.child_fields and atomic:
                    self.fail(f"constructor {text} takes arguments; parenthesize it")
                self.advance()
                if cls.child_fields:
                    stack.append([cls, []])
                    atomic = True
                    continue
                term = cls()
            elif kind == "atomlit":
                self.advance()
                term = Atom(text)
            elif kind == "name" and text not in KEYWORDS:
                self.advance()
                term = Var(text)
            elif self.at_punct("("):
                parens += 1
                if limit is not None and parens > limit:
                    self.fail(f"brackets nested deeper than {limit}")
                self.advance()
                stack.append([None, []])
                atomic = False
                continue
            else:
                self.fail(f"expected a term, found {text!r}")
            # ``term`` is whole: hand it to the frames it completes.
            while stack:
                cls, args = stack[-1]
                if cls is not None:
                    args.append(term)
                    if len(args) < len(cls.child_fields):
                        atomic = True
                        break
                    stack.pop()
                    term = cls(*args)
                elif not args and self.at_punct(","):
                    self.advance()
                    args.append(term)
                    atomic = False
                    break
                else:
                    self.expect_punct(")")
                    parens -= 1
                    stack.pop()
                    term = Pair(args[0], term) if args else term
            else:
                return term

    # -- call references ----------------------------------------------------

    def parse_callref(self, depth: int = 0) -> CallRef:
        name = self.expect_name()
        args: tuple[CallRef, ...] = ()
        if self.at_punct("<"):
            if depth == MAX_NESTING:
                self.fail(f"brackets nested deeper than {MAX_NESTING}")
            self.advance()
            collected = [self.parse_callref(depth + 1)]
            while self.at_punct(","):
                self.advance()
                collected.append(self.parse_callref(depth + 1))
            self.expect_punct(">")
            args = tuple(collected)
        inverted = False
        if self.at_punct("~"):
            self.advance()
            inverted = True
        return CallRef(name, args, inverted)

    # -- clauses and programs ------------------------------------------------

    def parse_body(self) -> tuple[tuple[LetStep, ...], Term]:
        lets = []
        while self.at_keyword("let"):
            self.advance()
            pattern = self.parse_term()
            self.expect_punct("=")
            callee = self.parse_callref()
            arg = self.parse_term(atomic=True)
            if not self.at_keyword("in"):
                self.fail("expected 'in' after let binding")
            self.advance()
            lets.append(LetStep(pattern, callee, arg))
        return tuple(lets), self.parse_term()

    def parse_fundef_clause(self) -> tuple[str, tuple[str, ...], Clause]:
        line = self.tokens[self.pos][2]
        self.advance()  # 'fun'
        name = self.expect_name()
        params: tuple[str, ...] = ()
        if self.at_punct("<"):
            self.advance()
            collected = [self.expect_name()]
            while self.at_punct(","):
                self.advance()
                collected.append(self.expect_name())
            self.expect_punct(">")
            params = tuple(collected)
        lhs = self.parse_term(atomic=True)
        self.expect_punct("=")
        lets, out = self.parse_body()
        return name, params, Clause(lhs, lets, out, line)

    def parse_program(self) -> Program:
        program = Program()
        atoms: list[str] = []
        while self.kind != "eof":
            if self.at_keyword("atom"):
                self.advance()
                while self.kind == "name" and self.text not in KEYWORDS:
                    atoms.append(self.advance())
            elif self.at_keyword("fun"):
                name, params, clause = self.parse_fundef_clause()
                program.define(FuncDef(name, params, (clause,), clause.line))
            else:
                self.fail(f"expected 'fun' or 'atom', found {self.text!r}")
        program.atoms = tuple(dict.fromkeys(atoms))
        return program


def parse_program(source: str) -> Program:
    return _Parser(tokenize(source)).parse_program()


def parse_value(text: str) -> Term:
    """Parse a closed value literal, e.g. ``(S Z, Cons 'a Nil)``."""
    parser = _Parser(tokenize(text))
    term = parser.parse_term(limit=None)
    if parser.kind != "eof":
        parser.fail(f"trailing input after value: {parser.text!r}")
    if not is_value(term):
        raise ParseError("value literals cannot contain variables")
    return term


def parse_callref_text(text: str) -> CallRef:
    """Parse a call reference such as ``map<inc~>`` or ``add~``."""
    parser = _Parser(tokenize(text))
    ref = parser.parse_callref()
    if parser.kind != "eof":
        parser.fail(f"trailing input after reference: {parser.text!r}")
    return ref
