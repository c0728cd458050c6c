"""Tokenizer and recursive-descent parser for the formula language.

Grammar (standard precedence; ``^`` binds tightest and is right-assoc)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('+' | '-') factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | IDENT '(' expr (',' expr)* ')' | IDENT | '(' expr ')'

Numbers accept integer, decimal, and scientific notation (``1e-4``).
Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .ast import BinaryOp, Call, FormulaError, FormulaNode, Number, UnaryOp, Variable


class FormulaParseError(FormulaError):
    """Raised when a formula string cannot be tokenized or parsed."""


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | OP | LPAREN | RPAREN | COMMA
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[-+*/^])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split a formula string into tokens, rejecting unknown characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(
                f"unexpected character {text[pos]!r} at position {pos} in {text!r}"
            )
        kind = m.lastgroup
        assert kind is not None
        if kind != "WS":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise FormulaParseError(f"unexpected end of formula in {self._source!r}")
        self._index += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self._next()
        if tok.kind != kind:
            raise FormulaParseError(
                f"expected {kind} at position {tok.pos} in {self._source!r}, "
                f"got {tok.text!r}"
            )
        return tok

    def parse(self) -> FormulaNode:
        node = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise FormulaParseError(
                f"trailing input {trailing.text!r} at position {trailing.pos} "
                f"in {self._source!r}"
            )
        return node

    def _expr(self) -> FormulaNode:
        node = self._term()
        while (tok := self._peek()) is not None and tok.text in ("+", "-"):
            self._next()
            node = BinaryOp(tok.text, node, self._term())
        return node

    def _term(self) -> FormulaNode:
        node = self._factor()
        while (tok := self._peek()) is not None and tok.text in ("*", "/"):
            self._next()
            node = BinaryOp(tok.text, node, self._factor())
        return node

    def _factor(self) -> FormulaNode:
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.text in ("+", "-"):
            self._next()
            return UnaryOp(tok.text, self._factor())
        return self._power()

    def _power(self) -> FormulaNode:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.text == "^":
            self._next()
            # right-associative: 2^3^2 == 2^(3^2)
            return BinaryOp("^", base, self._factor())
        return base

    def _atom(self) -> FormulaNode:
        tok = self._next()
        if tok.kind == "NUMBER":
            text = tok.text
            if any(c in text for c in ".eE"):
                return Number(float(text))
            return Number(int(text))
        if tok.kind == "IDENT":
            nxt = self._peek()
            if nxt is not None and nxt.kind == "LPAREN":
                self._next()
                args = [self._expr()]
                while (t := self._peek()) is not None and t.kind == "COMMA":
                    self._next()
                    args.append(self._expr())
                self._expect("RPAREN")
                return Call(tok.text, tuple(args))
            return Variable(tok.text)
        if tok.kind == "LPAREN":
            node = self._expr()
            self._expect("RPAREN")
            return node
        raise FormulaParseError(
            f"unexpected token {tok.text!r} at position {tok.pos} in {self._source!r}"
        )


#: Distinct formula sources whose parsed trees :func:`parse` keeps. The
#: models use a handful of formulas, but every stored result decodes
#: its QEC scheme's formulas again, so a warm sweep parses the same few
#: strings thousands of times.
PARSE_CACHE_SIZE = 1024


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> FormulaNode:
    """Parse a formula string into an AST.

    Memoized: equal sources share one tree, which is safe because AST
    nodes are frozen. A source that fails to parse is not cached, so it
    raises on every call.
    """
    tokens = tokenize(text)
    if not tokens:
        raise FormulaParseError("empty formula")
    return _Parser(tokens, text).parse()
