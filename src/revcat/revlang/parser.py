"""Tokenizer and recursive-descent parser for the concrete syntax.

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

    def parse_term(self) -> Term:
        tok = self.current
        cls = CONSTRUCTORS.get(tok.text) if tok.kind == "cons" else None
        if cls is not None and cls.child_fields:
            self.advance()
            return cls(*[self.parse_atomic_term() for _ in cls.child_fields])
        return self.parse_atomic_term()

    def parse_atomic_term(self) -> Term:
        tok = self.current
        if tok.kind == "cons":
            cls = CONSTRUCTORS.get(tok.text)
            if cls is None:
                self.fail(f"unknown constructor {tok.text!r}")
            if cls.child_fields:
                self.fail(f"constructor {tok.text} takes arguments; parenthesize it")
            self.advance()
            return cls()
        if tok.kind == "atomlit":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.advance()
            return Var(tok.text)
        if self.at_punct("("):
            self.advance()
            inner = self.parse_term()
            if self.at_punct(","):
                self.advance()
                right = self.parse_term()
                self.expect_punct(")")
                return Pair(inner, right)
            self.expect_punct(")")
            return inner
        self.fail(f"expected a term, found {tok.text!r}")

    # -- call references ----------------------------------------------------

    def parse_callref(self) -> CallRef:
        name = self.expect_name().text
        args: tuple[CallRef, ...] = ()
        if self.at_punct("<"):
            self.advance()
            collected = [self.parse_callref()]
            while self.at_punct(","):
                self.advance()
                collected.append(self.parse_callref())
            self.expect_punct(">")
            args = tuple(collected)
        inverted = False
        if self.at_punct("~"):
            self.advance()
            inverted = True
        return CallRef(name, args, inverted)

    # -- clauses and programs ------------------------------------------------

    def parse_body(self) -> tuple[tuple[LetStep, ...], Term]:
        if self.at_keyword("let"):
            self.advance()
            pattern = self.parse_term()
            self.expect_punct("=")
            callee = self.parse_callref()
            arg = self.parse_atomic_term()
            if not self.at_keyword("in"):
                self.fail("expected 'in' after let binding")
            self.advance()
            lets, out = self.parse_body()
            return (LetStep(pattern, callee, arg),) + lets, out
        return (), self.parse_term()

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
        lhs = self.parse_atomic_term()
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
    term = parser.parse_term()
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
