"""Refresh-driven result invalidation, and syncing under suspended queries."""

from __future__ import annotations

import asyncio

from repro.service import QueryService
from repro.service.results import ResultCache
from repro.telemetry import MetricsRegistry

from tests.service.conftest import CACHE_ID, build_netmon_system


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# ResultCache.invalidate_table in isolation
# ----------------------------------------------------------------------
def make_cache(registry: MetricsRegistry | None = None) -> ResultCache:
    return ResultCache(
        ttl=100.0, clock=lambda: 0.0, max_entries=8, registry=registry
    )


def result_events(registry: MetricsRegistry, event: str) -> float:
    return registry.value_of("trapp_result_cache_events_total", event=event)


def answer():
    from repro.core.answer import BoundedAnswer
    from repro.core.bound import Bound

    return BoundedAnswer(bound=Bound(1.0, 2.0))


def test_invalidate_table_scoped():
    registry = MetricsRegistry()
    cache = make_cache(registry)
    k1 = ResultCache.make_key("c1", "t", "SUM", "x", None, 5.0)
    k2 = ResultCache.make_key("c2", "t", "SUM", "x", None, 5.0)
    k3 = ResultCache.make_key("c1", "other", "SUM", "x", None, 5.0)
    for key in (k1, k2, k3):
        cache.put(key, answer())
    dropped = cache.invalidate_table("t", scopes=["c1"])
    assert dropped == 1
    assert cache.get(k1, 5.0) is None
    assert cache.get(k2, 5.0) is not None
    assert cache.get(k3, 5.0) is not None
    assert result_events(registry, "invalidation") == 1


def test_invalidate_table_all_scopes():
    cache = make_cache()
    keys = [
        ResultCache.make_key(scope, "t", "SUM", "x", None, 5.0)
        for scope in ("a", "b", "c")
    ]
    for key in keys:
        cache.put(key, answer())
    assert cache.invalidate_table("t") == 3
    assert len(cache) == 0


def test_invalidate_table_reaches_join_keys():
    """A multi-table key is indexed under *every* referenced table: a
    refresh of either join side must evict the cached join answer."""
    cache = make_cache()
    join_key = ResultCache.make_key(
        "c1", ("links", "nodes"), "SUM", ("nodes", "load"), None, 5.0
    )
    single_key = ResultCache.make_key("c1", "links", "SUM", "x", None, 5.0)
    cache.put(join_key, answer())
    cache.put(single_key, answer())

    # Refreshing the *second* join table evicts the join answer only.
    assert cache.invalidate_table("nodes", scopes=["c1"]) == 1
    assert cache.get(join_key, 5.0) is None
    assert cache.get(single_key, 5.0) is not None

    # Re-cache; refreshing the first table evicts both, exactly once each
    # (the join key must not double-count through its two buckets).
    cache.put(join_key, answer())
    assert cache.invalidate_table("links", scopes=["c1"]) == 2
    assert len(cache) == 0


def test_statement_extras_keep_answer_shapes_apart():
    """GROUP BY and TOP-N identities never alias the plain aggregate's."""
    plain = ResultCache.make_key("c", "t", "SUM", "x", None, 5.0)
    grouped = ResultCache.make_key(
        "c", "t", "SUM", "x", None, 5.0, extra=("GROUP BY", "g")
    )
    topn = ResultCache.make_key(
        "c", "t", "TOPN", "x", None, 5.0, extra=("TOPN", 3)
    )
    assert len({plain, grouped, topn}) == 3


def test_invalidation_index_survives_eviction_and_clear():
    cache = make_cache()
    for index in range(12):  # ttl cache holds 8; 4 oldest evicted
        cache.put(
            ResultCache.make_key("c", "t", "SUM", "x", None, float(index)),
            answer(),
        )
    assert len(cache) == 8
    assert cache.invalidate_table("t", scopes=["c"]) == 8
    cache.clear()
    assert cache.invalidate_table("t") == 0


# ----------------------------------------------------------------------
# Refresh-driven invalidation through the service
# ----------------------------------------------------------------------
def test_dispatched_refresh_evicts_affected_entries():
    system = build_netmon_system()
    service = QueryService(system, result_ttl=1e9)

    async def go():
        # Seed the cache with a loose answer (no refresh needed).
        first = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 10000 FROM links"
        )
        assert not first.cached
        repeat = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 10000 FROM links"
        )
        assert repeat.cached  # served from the result cache

        # A tight query refreshes tuples of the same table → the seeded
        # entry must be evicted, not served for its remaining TTL.
        tight = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 1 FROM links"
        )
        assert tight.answer.refreshed

        after = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 10000 FROM links"
        )
        return after

    after = run(go())
    assert not after.cached  # recomputed, not served stale
    assert result_events(service.telemetry.registry, "invalidation") >= 1


def test_group_query_scopes_one_entry_one_miss():
    """A fan-out group query reads and feeds exactly one (group-scoped)
    result entry: an unserved query is one miss, a repeat one hit."""
    from repro.replication.system import TrappSystem
    from repro.storage.schema import Schema
    from repro.storage.table import Table

    system = TrappSystem()
    master = Table("t", Schema.of(x="bounded"))
    master.insert({"x": 1.0})
    system.add_source("s").add_table(master)
    system.add_cache("edge/0", shards={"t": "s"}, group="edge")
    service = QueryService(system)

    async def go():
        await service.query("edge", "SELECT SUM(x) WITHIN 100 FROM t")
        await service.query("edge", "SELECT SUM(x) WITHIN 100 FROM t")

    run(go())
    registry = service.telemetry.registry
    assert result_events(registry, "miss") == 1
    assert result_events(registry, "hit") == 1
    assert len(service.results) == 1  # one scope, not one per tier


def test_independent_group_shares_nothing_across_replicas():
    """The independent-caches ablation (fanout=False) must not coalesce identical queries across replicas through the
    result cache or single-flight — replicas are not in lockstep."""
    from repro.replication.system import TrappSystem
    from repro.storage.schema import Schema
    from repro.storage.table import Table

    system = TrappSystem()
    master = Table("t", Schema.of(x="bounded"))
    for v in (1.0, 2.0):
        master.insert({"x": v})
    system.add_source("s").add_table(master)
    system.add_group("edge", fanout=False)
    for index in range(2):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    service = QueryService(system, result_ttl=1e9)
    sql = "SELECT SUM(x) WITHIN 100 FROM t"

    async def go():
        first = await service.query("edge/0", sql, client_id="a")
        second = await service.query("edge/1", sql, client_id="b")
        return first, second

    first, second = run(go())
    assert not first.cached
    assert not second.cached  # edge/1 computed its own answer
    assert service.telemetry.registry.value_of(
        "trapp_service_events_total", event="singleflight_join"
    ) == 0


def test_fanout_group_invalidates_siblings_even_without_cross_cache():
    """A query pinned to one replica refreshes through the group, and
    fan-out tightened the siblings — their entries must be evicted."""
    from repro.replication.system import TrappSystem
    from repro.storage.schema import Schema
    from repro.storage.table import Table

    system = TrappSystem()
    master = Table("t", Schema.of(x="bounded"))
    for v in (1.0, 2.0, 3.0):
        master.insert({"x": v})
    system.add_source("s").add_table(master)
    for index in range(2):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    system.clock.advance(20.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    service = QueryService(system, result_ttl=1e9)

    async def go():
        seeded = await service.query(
            "edge/1", "SELECT SUM(x) WITHIN 10000 FROM t", client_id="b"
        )
        assert not seeded.cached
        tight = await service.query(
            "edge/0", "SELECT SUM(x) WITHIN 0 FROM t", client_id="a"
        )
        assert tight.answer.refreshed
        after = await service.query(
            "edge/1", "SELECT SUM(x) WITHIN 10000 FROM t", client_id="b"
        )
        return after

    after = run(go())
    assert not after.cached  # sibling's entry was invalidated, recomputed


def test_refresh_of_other_table_leaves_entries_alone():
    system = build_netmon_system()
    # Second table on its own source, same cache.
    import random

    from repro.workloads.netmon import build_master_table, generate_topology

    rng = random.Random(9)
    other = build_master_table(generate_topology(4, 9, rng), rng)
    source2 = system.add_source("net2")
    renamed = type(other)("links2", other.schema)
    for row in other.rows():
        renamed.insert(row.as_dict(), tid=row.tid)
    source2.add_table(renamed)
    system.cache(CACHE_ID).subscribe_table(source2, "links2")
    system.cache(CACHE_ID).sync_bounds()

    service = QueryService(system, result_ttl=1e9)

    async def go():
        await service.query(CACHE_ID, "SELECT SUM(traffic) WITHIN 10000 FROM links")
        await service.query(CACHE_ID, "SELECT SUM(traffic) WITHIN 1 FROM links2")
        return await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 10000 FROM links"
        )

    assert run(go()).cached  # links entry untouched by links2 refresh


# ----------------------------------------------------------------------
# Syncing under a suspended query: the recheck plans again
# ----------------------------------------------------------------------
def test_sync_under_suspended_query_replans():
    system = build_netmon_system()
    service = QueryService(system, network_delay=0.05)

    async def go():
        # A refresh-needing query suspends at the scheduler tick for the
        # network delay, its plan leaving two of the thirty 20-wide bounds
        # unrefreshed...
        slow = asyncio.create_task(
            service.query(
                CACHE_ID, "SELECT SUM(traffic) WITHIN 45 FROM links", client_id="slow"
            )
        )
        await asyncio.sleep(0.01)
        # ...while the clock advances and other queries keep arriving,
        # each syncing the bounds the slow query planned against: the two
        # it left out grow to 25.3 each.
        system.clock.advance(60.0)
        for index in range(3):
            await service.query(
                CACHE_ID,
                "SELECT SUM(traffic) WITHIN 100000 FROM links",
                client_id=f"fast-{index}",
                cost=lambda row: 1.0,  # unshareable: forces execution
            )
        return await slow

    result = run(go())
    # The widened bounds failed the slow query's recheck; it planned
    # again instead of answering wider than it promised.
    assert result.answer.meets(45.0)
    replans = service.telemetry.registry.value_of(
        "trapp_service_events_total", event="replan"
    )
    assert replans >= 1
