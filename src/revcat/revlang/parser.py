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

from dataclasses import dataclass

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
PUNCT = "(),<>=~"
# The deepest nesting of brackets in program text and call references.  The
# evaluator's compiled matchers and builders and the walks over call
# references recurse once per level; value literals have no bound.
MAX_NESTING = 200


@dataclass(frozen=True)
class Token:
    kind: str  # name | cons | atomlit | punct | eof
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "'":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if j == i + 1:
                raise ParseError("empty atom literal", line, start_col)
            tokens.append(Token("atomlit", source[i + 1 : j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "cons" if text[0].isupper() else "name"
            tokens.append(Token(kind, text, line, start_col))
            col += j - i
            i = j
            continue
        if ch in PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.current
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.advance()

    def expect_name(self) -> Token:
        tok = self.current
        if tok.kind != "name" or tok.text in KEYWORDS:
            self.fail(f"expected a name, found {tok.text!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == "name" and self.current.text == word

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
            tok = self.current
            if tok.kind == "cons":
                cls = CONSTRUCTORS.get(tok.text)
                if cls is None:
                    self.fail(f"unknown constructor {tok.text!r}")
                if cls.child_fields and atomic:
                    self.fail(f"constructor {tok.text} takes arguments; parenthesize it")
                self.advance()
                if cls.child_fields:
                    stack.append([cls, []])
                    atomic = True
                    continue
                term = cls()
            elif tok.kind == "atomlit":
                self.advance()
                term = Atom(tok.text)
            elif tok.kind == "name" and tok.text not in KEYWORDS:
                self.advance()
                term = Var(tok.text)
            elif self.at_punct("("):
                parens += 1
                if limit is not None and parens > limit:
                    self.fail(f"brackets nested deeper than {limit}")
                self.advance()
                stack.append([None, []])
                atomic = False
                continue
            else:
                self.fail(f"expected a term, found {tok.text!r}")
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
        name = self.expect_name().text
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
        line = self.current.line
        self.advance()  # 'fun'
        name = self.expect_name().text
        params: tuple[str, ...] = ()
        if self.at_punct("<"):
            self.advance()
            collected = [self.expect_name().text]
            while self.at_punct(","):
                self.advance()
                collected.append(self.expect_name().text)
            self.expect_punct(">")
            params = tuple(collected)
        lhs = self.parse_term(atomic=True)
        self.expect_punct("=")
        lets, out = self.parse_body()
        return name, params, Clause(lhs, lets, out, line)

    def parse_program(self) -> Program:
        program = Program()
        atoms: list[str] = []
        while self.current.kind != "eof":
            if self.at_keyword("atom"):
                self.advance()
                while self.current.kind == "name" and self.current.text not in KEYWORDS:
                    atoms.append(self.advance().text)
            elif self.at_keyword("fun"):
                name, params, clause = self.parse_fundef_clause()
                program.define(FuncDef(name, params, (clause,), clause.line))
            else:
                self.fail(f"expected 'fun' or 'atom', found {self.current.text!r}")
        program.atoms = tuple(dict.fromkeys(atoms))
        return program


def parse_program(source: str) -> Program:
    return _Parser(tokenize(source)).parse_program()


def parse_value(text: str) -> Term:
    """Parse a closed value literal, e.g. ``(S Z, Cons 'a Nil)``."""
    parser = _Parser(tokenize(text))
    term = parser.parse_term(limit=None)
    if parser.current.kind != "eof":
        parser.fail(f"trailing input after value: {parser.current.text!r}")
    if not is_value(term):
        raise ParseError("value literals cannot contain variables")
    return term


def parse_callref_text(text: str) -> CallRef:
    """Parse a call reference such as ``map<inc~>`` or ``add~``."""
    parser = _Parser(tokenize(text))
    ref = parser.parse_callref()
    if parser.current.kind != "eof":
        parser.fail(f"trailing input after reference: {parser.current.text!r}")
    return ref
