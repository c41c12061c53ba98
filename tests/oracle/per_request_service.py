"""The per-request front end ``QueryService`` used to run.

Every request parsed its text, compiled the statement against the routed
cache's catalog, rendered its result-cache keys afresh and synced *every*
cached column before executing.  :class:`PerRequestQueryService` is that
path on the current service — admission, routing, result tiers,
single-flight and the scheduler are shared — so the statement cache and
the scoped sync can be held to it bit for bit.
"""

from __future__ import annotations

from repro.service import QueryService
from repro.service.service import _Prepared
from repro.sql.compiler import compile_statement
from repro.sql.parser import parse_statement


class PerRequestQueryService(QueryService):
    """A :class:`QueryService` that caches no statement and syncs every
    cached column on every execution."""

    def _parse(self, sql):
        return parse_statement(sql)

    def _prepare(self, sql, statement, cache):
        return _Prepared(compile_statement(statement, cache.catalog), None)
