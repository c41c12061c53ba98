"""Parser for the TRAPP SQL dialect.

Reuses the predicate tokenizer/parser from :mod:`repro.predicates.parser`
and layers the statement grammar on top::

    statement := SELECT agg '(' target ')' [WITHIN number]
                 FROM table (',' table)*
                 [WHERE predicate]
                 [GROUP BY column (',' column)*] [';']
    agg       := COUNT | SUM | AVG | MIN | MAX | MEDIAN | TOPN
    target    := '*' | column | table '.' column

``TOPN`` takes two arguments — ``TOPN(n, column)`` — where ``n`` is the
rank of the reported order statistic (§8.1).
"""

from __future__ import annotations

import math

from repro.errors import SqlSyntaxError
from repro.predicates.ast import TruePredicate
from repro.predicates.parser import PredicateParser, TokenStream, tokenize
from repro.sql.ast import AGGREGATE_NAMES, SelectStatement

__all__ = ["MAX_RANK", "parse_statement"]

#: The largest ``TOPN`` rank a statement may ask for: an int64.
MAX_RANK = 2**63 - 1


def parse_statement(text: str) -> SelectStatement:
    """Parse one ``SELECT`` statement; raises :class:`SqlSyntaxError`."""
    stream = TokenStream(tokenize(text))
    stream.expect_keyword("SELECT")

    agg_token = stream.expect_ident("aggregate function")
    aggregate = agg_token.text.upper()
    if aggregate not in AGGREGATE_NAMES:
        raise SqlSyntaxError(
            f"unknown aggregate {agg_token.text!r}; expected one of "
            f"{', '.join(AGGREGATE_NAMES)}",
            agg_token.pos,
        )

    stream.expect_punct("(")
    top_n: int | None = None
    if aggregate == "TOPN":
        top_n = _parse_rank(stream)
        stream.expect_punct(",")
    column = _parse_target(stream, aggregate)
    stream.expect_punct(")")

    within = math.inf
    if stream.accept_keyword("WITHIN"):
        token = stream.peek()
        within = _parse_number(stream)
        if not math.isfinite(within):
            # An overflowing literal would silently mean "no constraint".
            raise SqlSyntaxError(
                f"WITHIN takes a finite number, got {within}", token.pos
            )

    stream.expect_keyword("FROM")
    tables = [stream.expect_ident("table name").text]
    while stream.accept_punct(","):
        tables.append(stream.expect_ident("table name").text)

    predicate = TruePredicate()
    if stream.accept_keyword("WHERE"):
        predicate = PredicateParser(stream).parse()

    group_by: tuple[str, ...] = ()
    if stream.accept_keyword("GROUP"):
        stream.expect_keyword("BY")
        names = [stream.expect_ident("grouping column").text]
        while stream.accept_punct(","):
            names.append(stream.expect_ident("grouping column").text)
        group_by = tuple(names)

    stream.accept_punct(";")
    stream.expect_eof()
    return SelectStatement(
        aggregate=aggregate,
        column=column,
        tables=tuple(tables),
        within=within,
        predicate=predicate,
        group_by=group_by,
        top_n=top_n,
    )


def _parse_target(stream: TokenStream, aggregate: str) -> str | None:
    token = stream.peek()
    if token.kind == "punct" and token.text == "*":
        if aggregate != "COUNT":
            raise SqlSyntaxError(
                f"{aggregate}(*) is not valid; only COUNT takes '*'", token.pos
            )
        stream.advance()
        return None
    first = stream.expect_ident("column name")
    if stream.accept_punct("."):
        return stream.expect_ident("column name").text
    return first.text


def _parse_rank(stream: TokenStream) -> int:
    token = stream.peek()
    if token.kind != "number":
        raise SqlSyntaxError(
            f"TOPN takes a rank first: TOPN(n, column); found {token.text!r}",
            token.pos,
        )
    try:
        rank = int(token.text)
    except ValueError:  # a decimal point, an exponent or too many digits
        value = float(token.text)
        rank = int(value) if math.isfinite(value) and value.is_integer() else 0
    if not 1 <= rank <= MAX_RANK:
        raise SqlSyntaxError(
            f"TOPN rank must be an integer in [1, 2**63 - 1], got {token.text!r}",
            token.pos,
        )
    stream.advance()
    return rank


def _parse_number(stream: TokenStream) -> float:
    token = stream.peek()
    sign = 1.0
    if token.kind == "punct" and token.text == "-":
        stream.advance()
        sign = -1.0
        token = stream.peek()
    if token.kind != "number":
        raise SqlSyntaxError(f"expected number, found {token.text!r}", token.pos)
    stream.advance()
    return sign * float(token.text)
