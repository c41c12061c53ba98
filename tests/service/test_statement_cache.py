"""The service's statement cache and the scoped bound sync.

A repeated statement is parsed, compiled and keyed once per routed
cache; a cached plan serves only while every table it names is the
cache's current catalog table; errors are never cached; both maps stay
inside :data:`~repro.service.service.STATEMENT_CACHE_ENTRIES`.  An
execution syncs only the ``(table, column)``s its plan reads: the other
columns keep their endpoints until a statement that reads them runs.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import SqlSyntaxError, StatementTooComplexError, UnknownColumnError
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.service import service as service_module
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.deployments import mixed_service_system, sharded_service_system
from tests.oracle.per_request_service import PerRequestQueryService

SQL = "SELECT SUM(x) WITHIN 100 FROM t"


def run(coro):
    return asyncio.run(coro)


def build_group_system(n_caches: int = 3) -> TrappSystem:
    system = TrappSystem()
    master = Table("t", Schema.of(x="bounded", y="bounded"))
    for index in range(6):
        master.insert({"x": float(index + 1), "y": float(10 * index)})
    system.add_source("s").add_table(master)
    system.add_group("edge")
    for index in range(n_caches):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    return system


def events(service: QueryService, event: str) -> float:
    return service.telemetry.registry.value_of(
        "trapp_statement_cache_events_total", event=event
    )


def served_plan(service: QueryService, sql: str, cache_id: str):
    return service._prepared[sql, cache_id].plan


# ----------------------------------------------------------------------
# Hits, and the identity check
# ----------------------------------------------------------------------
def test_a_repeated_statement_is_parsed_and_compiled_once(monkeypatch):
    system = build_group_system(1)
    service = QueryService(system, result_ttl=0.0)
    calls = {"parse": 0, "compile": 0}
    parse, compile_ = service_module.parse_statement, service_module.compile_statement

    def counting_parse(sql):
        calls["parse"] += 1
        return parse(sql)

    def counting_compile(statement, catalog):
        calls["compile"] += 1
        return compile_(statement, catalog)

    monkeypatch.setattr(service_module, "parse_statement", counting_parse)
    monkeypatch.setattr(service_module, "compile_statement", counting_compile)

    async def go():
        for _ in range(5):
            await service.query("edge/0", SQL)

    run(go())
    assert calls == {"parse": 1, "compile": 1}
    assert (events(service, "hit"), events(service, "miss")) == (4, 1)


def test_detach_and_readd_under_the_same_id_recompiles():
    system = build_group_system(3)
    service = QueryService(system)

    async def go():
        await service.query("edge/1", SQL)
        stale = served_plan(service, SQL, "edge/1")
        # Detached behind the service's back: only the identity check
        # stands between the stale plan and the new replica.
        system.detach_cache("edge/1")
        readded = system.add_cache("edge/1", shards={"t": "s"}, group="edge")
        result = await service.query("edge/1", SQL)
        return stale, readded, result

    stale, readded, result = run(go())
    plan = served_plan(service, SQL, "edge/1")
    assert plan is not stale
    assert plan.table is readded.table("t")
    assert result.cache_id == "edge/1"
    assert (events(service, "hit"), events(service, "miss")) == (0, 2)


def test_a_service_detach_drops_the_replicas_plans():
    system = build_group_system(3)
    service = QueryService(system)

    async def go():
        await service.query("edge/0", SQL)
        await service.query("edge/1", SQL)
        await service.detach_replica("edge", "edge/1")

    run(go())
    assert list(service._prepared) == [(SQL, "edge/0")]


def test_admit_under_a_detached_id_recompiles_and_a_migration_keeps_the_plan():
    system = build_group_system(3)
    service = QueryService(system)

    async def go():
        await service.query("edge/2", SQL)
        stale = served_plan(service, SQL, "edge/2")
        await service.detach_replica("edge", "edge/2")
        service.admit_replica("edge", "edge/2")
        await service.query("edge/2", SQL)
        return stale

    stale = run(go())
    plan = served_plan(service, SQL, "edge/2")
    assert plan is not stale
    assert plan.table is system.cache("edge/2").table("t")

    # A master migration moves ownership, not the cached tables: the
    # plan stays, and answers match the per-request path tuple for tuple.
    twins = []
    for service_type in (QueryService, PerRequestQueryService):
        sharded, model = sharded_service_system(2, n_links=60)
        twins.append((sharded, service_type(sharded, cost_model=model, result_ttl=0.0)))
    sql = "SELECT SUM(traffic) WITHIN 40 FROM links WHERE latency < 60"

    async def migrate_and_query(sharded, served):
        answers = [await served.query("monitor", sql)]
        table = sharded.cache("monitor").table("links")
        for tid in table.columns.sorted_tids()[:5].tolist():
            source = sharded.source("net")
            owner = source.shard_for("links", tid).source_id
            target = "net/1" if owner == "net/0" else "net/0"
            source.migrate_master("links", tid, target)
        sharded.clock.advance(5.0)
        answers.append(await served.query("monitor", sql))
        return [
            (a.answer.bound.lo, a.answer.bound.hi, a.answer.refreshed,
             a.answer.refresh_cost)
            for a in answers
        ]

    results = [run(migrate_and_query(*twin)) for twin in twins]
    assert results[0] == results[1]
    assert (events(twins[0][1], "hit"), events(twins[0][1], "miss")) == (1, 1)


def test_the_same_text_on_two_replicas_never_shares_a_plan():
    system = build_group_system(2)
    service = QueryService(system)

    async def go():
        await service.query("edge/0", SQL)
        await service.query("edge/1", SQL)

    run(go())
    first, second = served_plan(service, SQL, "edge/0"), served_plan(service, SQL, "edge/1")
    assert first is not second
    assert first.table is system.cache("edge/0").table("t")
    assert second.table is system.cache("edge/1").table("t")
    assert len(service._statements) == 1
    assert events(service, "miss") == 2


# ----------------------------------------------------------------------
# Errors and the bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sql, error",
    [
        ("SELECT SUM(x WITHIN 1 FROM t", SqlSyntaxError),
        ("SELECT SUM(x) FROM t WHERE " + "NOT " * 40 + "x > 1", StatementTooComplexError),
        ("SELECT SUM(nope) WITHIN 1 FROM t", UnknownColumnError),
    ],
)
def test_errors_are_never_cached(sql, error):
    system = build_group_system(1)
    service = QueryService(system)

    async def go():
        for _ in range(3):
            with pytest.raises(error):
                await service.query("edge/0", sql)

    run(go())
    assert not service._prepared
    assert events(service, "hit") == 0


def test_the_lru_bound_holds(monkeypatch):
    monkeypatch.setattr(service_module, "STATEMENT_CACHE_ENTRIES", 3)
    system = build_group_system(1)
    service = QueryService(system)
    texts = [f"SELECT SUM(x) WITHIN {w} FROM t" for w in (100, 101, 102, 103, 104)]

    async def go():
        for sql in texts[:3]:
            await service.query("edge/0", sql)
        await service.query("edge/0", texts[0])  # renewed: now the newest
        for sql in texts[3:]:
            await service.query("edge/0", sql)

    run(go())
    kept = [texts[0], texts[3], texts[4]]
    assert list(service._statements) == kept
    assert [sql for sql, _ in service._prepared] == kept
    # Two texts left each map.
    assert events(service, "eviction") == 4
    assert (events(service, "hit"), events(service, "miss")) == (1, 5)


# ----------------------------------------------------------------------
# Scoped sync
# ----------------------------------------------------------------------
def endpoints(cache, column):
    lo, hi = cache.table("links").columns.endpoints(column)
    return lo.copy(), hi.copy()


def test_a_column_the_statement_does_not_read_keeps_its_endpoints():
    system, model = mixed_service_system(n_caches=1, n_links=60)
    twin, _ = mixed_service_system(n_caches=1, n_links=60)
    cache, full = system.cache("edge/0"), twin.cache("edge/0")
    service = QueryService(system, cost_model=model)

    def step(seconds):
        system.clock.advance(seconds)
        twin.clock.advance(seconds)
        full.sync_bounds()
        return {c: endpoints(cache, c) for c in ("latency", "bandwidth", "traffic")}

    def assert_kept(before, columns):
        for column in columns:
            lo, hi = endpoints(cache, column)
            assert lo.tobytes() == before[column][0].tobytes()
            assert hi.tobytes() == before[column][1].tobytes()

    def assert_synced(before, columns):
        for column in columns:
            (lo, hi), (want_lo, want_hi) = endpoints(cache, column), endpoints(full, column)
            assert not np.array_equal(hi, before[column][1])
            assert lo.tobytes() == want_lo.tobytes()
            assert hi.tobytes() == want_hi.tobytes()

    before = step(10.0)
    run(service.query("edge/0", "SELECT SUM(traffic) FROM links WHERE latency < 60"))
    assert_kept(before, ["bandwidth"])
    assert_synced(before, ["latency", "traffic"])

    # The serial path keeps the same rule.
    before = step(3.0)
    system.query("edge/0", "SELECT MAX(bandwidth) FROM links")
    assert_kept(before, ["latency", "traffic"])
    assert_synced(before, ["bandwidth"])


def test_a_scoped_sync_skips_exact_and_unknown_columns():
    system, _ = mixed_service_system(n_caches=1, n_links=30)
    cache = system.cache("edge/0")
    system.clock.advance(5.0)
    before = endpoints(cache, "traffic")
    cache.sync_bounds([("links", "from_node"), ("links", "nope"), ("other", "x")])
    after = endpoints(cache, "traffic")
    assert before[1].tobytes() == after[1].tobytes()
    cache.sync_bounds([("links", "traffic")])
    assert not np.array_equal(endpoints(cache, "traffic")[1], before[1])
