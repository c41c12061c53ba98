"""Tokenizer and recursive-descent parser for predicate expressions.

The grammar covers the predicate language of the paper: arbitrary boolean
combinations of binary comparisons between columns (optionally with a
linear transform) and constants.

::

    predicate   := or_expr
    or_expr     := and_expr ( OR and_expr )*
    and_expr    := not_expr ( AND not_expr )*
    not_expr    := NOT not_expr | '(' predicate ')' | comparison
    comparison  := term op term
    op          := '<' | '<=' | '>' | '>=' | '=' | '!=' | '<>'
    term        := [number '*'] column [('+'|'-') number]
                 | number | string | column
    column      := IDENT [ '.' IDENT ]

The tokenizer is shared with the SQL front-end (:mod:`repro.sql`), which
layers the ``SELECT … WITHIN …`` statement grammar on top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SqlSyntaxError
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["Token", "tokenize", "TokenStream", "parse_predicate", "PredicateParser"]


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token: kind, source text, and offset for error messages."""

    kind: str  # 'ident', 'number', 'string', 'op', 'punct', 'eof'
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>'[^']*')
  | (?P<op><=|>=|!=|<>|<|>|=)
  | (?P<punct>[(),.*+\-/;])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, raising on unrecognized characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            if kind == "op" and value == "<>":
                value = "!="
            tokens.append(Token(kind, value, pos))
        pos = match.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


class TokenStream:
    """A cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text.upper() in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if token.kind == "ident" and token.text.upper() == word:
            return self.advance()
        raise SqlSyntaxError(f"expected {word}, found {token.text!r}", token.pos)

    def accept_punct(self, text: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        token = self.peek()
        if token.kind == "punct" and token.text == text:
            return self.advance()
        raise SqlSyntaxError(f"expected {text!r}, found {token.text!r}", token.pos)

    def expect_ident(self, what: str = "identifier") -> Token:
        token = self.peek()
        if token.kind == "ident":
            return self.advance()
        raise SqlSyntaxError(f"expected {what}, found {token.text!r}", token.pos)

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind != "eof":
            raise SqlSyntaxError(f"unexpected trailing input {token.text!r}", token.pos)


_RESERVED = {
    "AND", "OR", "NOT", "TRUE", "SELECT", "FROM", "WHERE", "WITHIN",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "GROUP", "BY",
}


class PredicateParser:
    """Recursive-descent parser building :mod:`repro.predicates.ast` trees."""

    def __init__(self, stream: TokenStream) -> None:
        self.stream = stream

    # ------------------------------------------------------------------
    def parse(self) -> Predicate:
        return self._or_expr()

    def _or_expr(self) -> Predicate:
        node = self._and_expr()
        while self.stream.accept_keyword("OR"):
            node = Or(node, self._and_expr())
        return node

    def _and_expr(self) -> Predicate:
        node = self._not_expr()
        while self.stream.accept_keyword("AND"):
            node = And(node, self._not_expr())
        return node

    def _not_expr(self) -> Predicate:
        if self.stream.accept_keyword("NOT"):
            return Not(self._not_expr())
        if self.stream.accept_keyword("TRUE"):
            return TruePredicate()
        if self.stream.accept_punct("("):
            inner = self._or_expr()
            self.stream.expect_punct(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Comparison:
        left = self._term()
        op_token = self.stream.peek()
        if op_token.kind != "op":
            raise SqlSyntaxError(
                f"expected comparison operator, found {op_token.text!r}", op_token.pos
            )
        self.stream.advance()
        right = self._term()
        return Comparison(left, op_token.text, right)

    def _term(self) -> ColumnRef | Literal:
        token = self.stream.peek()
        if token.kind == "string":
            self.stream.advance()
            return Literal(token.text[1:-1])
        sign = 1.0
        if token.kind == "punct" and token.text == "-":
            self.stream.advance()
            sign = -1.0
            token = self.stream.peek()
        if token.kind == "number":
            self.stream.advance()
            value = sign * float(token.text)
            # 'number * column' form
            if self.stream.accept_punct("*"):
                column = self._column_ref(scale=value)
                return self._maybe_offset(column)
            return Literal(value)
        if token.kind == "ident" and token.text.upper() not in _RESERVED:
            column = self._column_ref(scale=sign)
            return self._maybe_offset(column)
        raise SqlSyntaxError(f"expected term, found {token.text!r}", token.pos)

    def _column_ref(self, scale: float = 1.0) -> ColumnRef:
        first = self.stream.expect_ident("column name")
        table: str | None = None
        column = first.text
        if self.stream.accept_punct("."):
            table = first.text
            column = self.stream.expect_ident("column name").text
        return ColumnRef(column=column, table=table, scale=scale)

    def _maybe_offset(self, column: ColumnRef) -> ColumnRef:
        token = self.stream.peek()
        if token.kind == "punct" and token.text in ("+", "-"):
            self.stream.advance()
            number = self.stream.peek()
            if number.kind != "number":
                raise SqlSyntaxError(
                    f"expected number after {token.text!r}", number.pos
                )
            self.stream.advance()
            offset = float(number.text)
            if token.text == "-":
                offset = -offset
            return ColumnRef(
                column=column.column,
                table=column.table,
                scale=column.scale,
                offset=offset,
            )
        return column


def parse_predicate(text: str) -> Predicate:
    """Parse standalone predicate text, e.g. ``"bandwidth > 50 AND latency < 10"``."""
    stream = TokenStream(tokenize(text))
    predicate = PredicateParser(stream).parse()
    stream.expect_eof()
    return predicate
