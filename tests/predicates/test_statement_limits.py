"""Typed statement limits: a hostile predicate is refused, fast and typed.

Past :data:`~repro.predicates.parser.MAX_NESTING` levels of ``NOT`` and
parentheses, or :data:`~repro.predicates.parser.MAX_COMPARISONS`
comparisons, the parser raises
:class:`~repro.errors.StatementTooComplexError` — a ``SqlSyntaxError`` —
after scanning only the tokens up to the limit, so neither the parser nor
a later tree walk (``columns_of``) can exhaust the stack.  The three
probes used to raise ``RecursionError`` after 9–86 ms.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import RemoteQueryError, SqlSyntaxError, StatementTooComplexError
from repro.predicates.ast import columns_of
from repro.predicates.parser import MAX_COMPARISONS, MAX_NESTING, parse_predicate
from repro.service import TrappClient, serve
from repro.sql.parser import MAX_RANK, parse_statement
from tests.service.conftest import CACHE_ID
from tests.service.test_wire import make_service

PROBES = {
    "nested_parentheses": "(" * 2000 + "a > 1" + ")" * 2000,
    "not_chain": "NOT " * 3000 + "a > 1",
    "and_chain": " AND ".join(["a > 1"] * 3000),
}

#: Numbers a statement cannot take: a rank that overflows a float (it
#: raised a bare ``OverflowError``) or an int64 (it parsed, and failed once
#: a table was touched), and a ``WITHIN`` that overflows to "no constraint".
NUMBER_PROBES = {
    "topn_overflowing_rank": "SELECT TOPN(1e999, traffic) FROM links",
    "topn_int64_overflow": "SELECT TOPN(1e300, traffic) FROM links",
    "topn_past_max_rank": f"SELECT TOPN({MAX_RANK + 1}, traffic) FROM links",
    "topn_fractional_rank": "SELECT TOPN(2.5, traffic) FROM links",
    "within_overflow": "SELECT SUM(traffic) WITHIN 1e999 FROM links",
    "within_negative_overflow": "SELECT SUM(traffic) WITHIN -1e999 FROM links",
}


def _fastest(call, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        with pytest.raises(StatementTooComplexError):
            call()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_each_probe_is_a_typed_error_in_under_a_millisecond(probe):
    text = PROBES[probe]
    assert _fastest(lambda: parse_predicate(text)) < 1e-3
    statement = f"SELECT SUM(a) WITHIN 5 FROM t WHERE {text}"
    assert _fastest(lambda: parse_statement(statement)) < 1e-3
    assert issubclass(StatementTooComplexError, SqlSyntaxError)


def test_the_limits_themselves_parse():
    deep = "NOT " * (MAX_NESTING // 2) + "(" * (MAX_NESTING // 2) + "a > 1"
    deep += ")" * (MAX_NESTING // 2)
    assert columns_of(parse_predicate(deep)) == {"a"}
    wide = " OR ".join(f"c{index} > {index}" for index in range(MAX_COMPARISONS))
    assert len(columns_of(parse_predicate(wide))) == MAX_COMPARISONS
    with pytest.raises(StatementTooComplexError, match="nests deeper"):
        parse_predicate("NOT " + deep)
    with pytest.raises(StatementTooComplexError, match="comparisons"):
        parse_predicate(wide + " OR z > 0")


def test_nesting_is_counted_per_path_not_per_statement():
    """Siblings do not add up: only how deep one path goes counts."""
    side = "(" * MAX_NESTING + "a > 1" + ")" * MAX_NESTING
    assert columns_of(parse_predicate(f"{side} AND {side} OR NOT b < 2")) == {"a", "b"}


@pytest.mark.parametrize("probe", sorted(NUMBER_PROBES))
def test_each_number_probe_is_a_syntax_error(probe):
    with pytest.raises(SqlSyntaxError, match="TOPN rank|WITHIN"):
        parse_statement(NUMBER_PROBES[probe])


def test_the_number_limits_themselves_parse():
    statement = parse_statement(f"SELECT TOPN({MAX_RANK}, traffic) FROM links")
    assert statement.top_n == MAX_RANK
    assert parse_statement("SELECT TOPN(3.0, traffic) FROM links").top_n == 3
    statement = parse_statement("SELECT SUM(traffic) WITHIN 1e300 FROM links")
    assert statement.within == 1e300


@pytest.mark.parametrize("probe", sorted(PROBES) + sorted(NUMBER_PROBES))
def test_the_error_kind_reaches_the_client(probe):
    if probe in PROBES:
        statement = f"SELECT SUM(traffic) WITHIN 5 FROM links WHERE {PROBES[probe]}"
        kind = "StatementTooComplexError"
    else:
        statement, kind = NUMBER_PROBES[probe], "SqlSyntaxError"

    async def go():
        service = make_service()
        async with await serve(service) as server:
            async with await TrappClient.connect(server.host, server.port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    await client.query(CACHE_ID, statement)
                assert excinfo.value.kind == kind

    asyncio.run(go())
