"""Sticky routing and QueryService group routing."""

from __future__ import annotations

import asyncio
import zlib

import pytest

from repro.errors import ServiceError
from repro.replication.system import TrappSystem
from repro.service import QueryService, StickyRouter
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_master(n: int = 6) -> Table:
    table = Table("t", Schema.of(x="bounded"))
    for index in range(n):
        table.insert({"x": float(index + 1)})
    return table


def build_group_system(n_caches: int = 3) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_group("edge")
    for index in range(n_caches):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    return system


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# The router in isolation
# ----------------------------------------------------------------------
def test_sticky_router_is_deterministic_and_client_keyed():
    system = build_group_system(3)
    candidates = system.group("edge").caches_of_table("t")
    router = StickyRouter()
    picks = {client: router.route(candidates, client) for client in "abcdef"}
    # Same client → same cache, every time.
    for client, cache in picks.items():
        assert router.route(candidates, client) is cache
        expected = zlib.crc32(client.encode()) % len(candidates)
        assert cache is candidates[expected]
    # Six clients over three replicas: more than one replica in play.
    assert len({cache.cache_id for cache in picks.values()}) > 1


# ----------------------------------------------------------------------
# Group routing through the service
# ----------------------------------------------------------------------
def test_service_routes_group_queries_sticky():
    system = build_group_system(3)
    service = QueryService(system)

    async def go():
        results = {}
        for index in range(9):
            client = f"client-{index}"
            result = await service.query(
                "edge", "SELECT SUM(x) WITHIN 100 FROM t", client_id=client
            )
            results[client] = result.cache_id
            # Stable on repeat.
            again = await service.query(
                "edge", "SELECT SUM(x) WITHIN 99 FROM t", client_id=client
            )
            assert again.cache_id == results[client]
        return results

    results = run(go())
    assert set(results.values()) <= {"edge/0", "edge/1", "edge/2"}
    assert len(set(results.values())) > 1


def test_service_pinned_cache_still_works():
    system = build_group_system(2)
    service = QueryService(system)

    async def go():
        return await service.query(
            "edge/1", "SELECT SUM(x) WITHIN 0 FROM t", client_id="pinned"
        )

    result = run(go())
    assert result.cache_id == "edge/1"
    assert result.answer.bound.lo == 21.0


def test_group_query_with_unknown_table_rejected():
    system = build_group_system(1)
    service = QueryService(system)

    async def go():
        await service.query("edge", "SELECT SUM(x) WITHIN 1 FROM nope")

    with pytest.raises(ServiceError):
        run(go())


def test_shared_result_tier_spans_replicas():
    """An answer computed on one replica serves an identical query routed
    to another replica through the group-level result tier."""
    system = build_group_system(2)
    service = QueryService(system)
    sql = "SELECT SUM(x) WITHIN 50 FROM t"

    async def go():
        first = await service.query("edge/0", sql, client_id="a")
        second = await service.query("edge/1", sql, client_id="b")
        return first, second

    first, second = run(go())
    assert not first.cached
    assert second.cached  # same answer, different replica, zero execution
    assert second.answer.bound.lo == first.answer.bound.lo

