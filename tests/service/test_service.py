"""QueryService: admission control, result cache, single-flight."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import AdmissionError, ServiceError, ServiceOverloadError
from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService

from tests.service.conftest import CACHE_ID, build_netmon_system

SUM_SQL = "SELECT SUM(traffic) WITHIN 5 FROM links"


def make_service(system=None, **kwargs) -> QueryService:
    system = system if system is not None else build_netmon_system()
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    return QueryService(system, **kwargs)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
def test_answers_match_classic_path():
    """The service returns the same bound the classic serial API returns."""
    service = make_service()
    classic = build_netmon_system().query(CACHE_ID, SUM_SQL)
    served = run(service.query(CACHE_ID, SUM_SQL))
    assert served.answer.bound.lo == pytest.approx(classic.bound.lo)
    assert served.answer.bound.hi == pytest.approx(classic.bound.hi)
    assert served.answer.refreshed == classic.refreshed


def test_result_cache_serves_repeats_and_expires():
    service = make_service(result_ttl=10.0)

    async def go():
        first = await service.query(CACHE_ID, SUM_SQL)
        second = await service.query(CACHE_ID, SUM_SQL)
        assert not first.cached
        assert second.cached
        assert second.answer is first.answer
        # Past the TTL the entry dies (and the bound would be stale).
        service.system.clock.advance(11.0)
        third = await service.query(CACHE_ID, SUM_SQL)
        assert not third.cached

    run(go())
    assert service.results.hits == 1
    assert service.results.expirations == 1


def test_result_cache_key_includes_width():
    """Different constraints are different cache entries; each answer
    satisfies the width it was asked for."""
    service = make_service()

    async def go():
        loose = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 50 FROM links"
        )
        tight = await service.query(CACHE_ID, SUM_SQL)
        assert not tight.cached
        assert loose.answer.meets(50)
        assert tight.answer.meets(5)

    run(go())


def test_precision_floor_rejects_tight_queries():
    service = make_service(precision_floor=1.0)

    async def go():
        with pytest.raises(AdmissionError):
            await service.query(
                CACHE_ID, "SELECT SUM(traffic) WITHIN 0.5 FROM links"
            )
        # At or above the floor is fine.
        await service.query(CACHE_ID, SUM_SQL)
        # A session override tightens the floor for one client only.
        strict = service.session("strict", precision_floor=100.0)
        with pytest.raises(AdmissionError):
            await strict.query(CACHE_ID, SUM_SQL)

    run(go())
    assert service.queries_rejected == 2


def test_per_client_inflight_limit():
    service = make_service(max_inflight_per_client=1, network_delay=0.02)

    async def go():
        # Two *distinct* queries from one client, concurrently: the second
        # is rejected while the first is still in flight.
        first = asyncio.create_task(
            service.query(CACHE_ID, SUM_SQL, client_id="c1")
        )
        await asyncio.sleep(0.005)  # let the first query reach its refresh
        with pytest.raises(ServiceOverloadError):
            await service.query(
                CACHE_ID,
                "SELECT SUM(latency) WITHIN 0.1 FROM links",
                client_id="c1",
            )
        # A different client is unaffected.
        other = await service.query(
            CACHE_ID,
            "SELECT SUM(bandwidth) WITHIN 1 FROM links",
            client_id="c2",
        )
        assert other.answer.meets(1)
        await first

    run(go())


def test_join_queries_served_through_the_service():
    from repro.workloads.stocks import stock_master_table, volatile_stock_day

    system = build_netmon_system()
    system.source("net").add_table(stock_master_table(volatile_stock_day(5)))
    system.cache(CACHE_ID).subscribe_table(system.source("net"), "stocks")
    service = make_service(system)
    sql = "SELECT SUM(price) WITHIN 5 FROM links, stocks WHERE traffic > 0"
    result = run(service.query(CACHE_ID, sql))
    assert result.answer.width <= 5 + 1e-9
    assert not result.cached
    # A repeat within the TTL is served from the result cache.
    repeat = run(service.query(CACHE_ID, sql))
    assert repeat.cached
    assert repeat.answer is result.answer


def test_latency_and_plan_rounds_observed_once_per_query_by_class():
    """``trapp_query_seconds`` sees every admitted query (cache hits too);
    ``trapp_plan_rounds`` sees each execution, with a join's one plan per
    greedy round showing up as a count above the single-table one."""
    from repro.workloads.service import mixed_service_system

    system, cost_model = mixed_service_system(n_caches=1)
    service = QueryService(system, cost_model=cost_model)
    join_sql = (
        "SELECT SUM(load) WITHIN 1 FROM links, nodes WHERE to_node = node"
    )
    statements = [
        SUM_SQL, SUM_SQL, join_sql,
        "SELECT TOPN(2, traffic) WITHIN 1 FROM links",
        "SELECT SUM(traffic) WITHIN 50 FROM links GROUP BY from_node",
    ]
    results = [run(service.query("edge", sql)) for sql in statements]
    assert [r.cached for r in results] == [False, True, False, False, False]
    with pytest.raises(AdmissionError):
        run(service.query("edge", SUM_SQL, precision_floor=100.0))

    registry = service.telemetry.registry
    seconds = registry.histogram("trapp_query_seconds", labelnames=("class",))
    rounds = registry.histogram("trapp_plan_rounds", labelnames=("class",))

    def observed(family, cls):
        return family.labels(**{"class": cls})

    # Latency: one observation per admitted query, rejected ones excluded.
    assert observed(seconds, "aggregate").count == 2
    assert observed(seconds, "join").count == 1
    assert observed(seconds, "topn").count == 1
    assert observed(seconds, "groupby").count == 1
    assert observed(seconds, "join").total > 0
    # Rounds: one observation per execution; the cache hit executed nothing.
    assert observed(rounds, "aggregate").count == 1
    assert observed(rounds, "aggregate").total == 1
    assert observed(rounds, "join").count == 1
    join_answer = results[2].answer
    assert observed(rounds, "join").total == len(join_answer.refreshed) > 1


def test_singleflight_shares_one_execution():
    service = make_service(network_delay=0.005)

    async def go():
        results = await asyncio.gather(
            *(service.query(CACHE_ID, SUM_SQL, client_id=f"c{i}") for i in range(6))
        )
        return results

    results = run(go())
    executed = [r for r in results if not r.cached]
    joined = [r for r in results if r.cached]
    assert len(executed) == 1
    assert len(joined) == 5
    assert service.singleflight_joins == 5
    # Everyone got the identical answer object.
    assert all(r.answer is executed[0].answer for r in joined)
    # Only one refresh pipeline ran.
    assert service.scheduler.stats.plans_submitted == 1


def test_concurrent_distinct_queries_coalesce_refreshes():
    service = make_service()

    async def go():
        return await asyncio.gather(
            service.query(CACHE_ID, "SELECT SUM(traffic) WITHIN 4 FROM links"),
            service.query(CACHE_ID, "SELECT SUM(traffic) WITHIN 6 FROM links"),
            service.query(CACHE_ID, "SELECT AVG(traffic) WITHIN 0.1 FROM links"),
        )

    results = run(go())
    for result, width in zip(results, (4, 6, 0.1)):
        assert result.answer.meets(width)
    stats = service.scheduler.stats
    assert stats.plans_submitted == 3
    assert stats.ticks == 1
    # Dedup happened: fewer tuples refreshed than requested.
    assert stats.tuples_refreshed < stats.tuples_requested
    # One source, one tick: exactly one request on the wire.
    assert stats.source_requests == 1


def test_cancelled_waiter_does_not_poison_the_tick():
    """One query's cancellation (connection drop) must not fail the other
    queries coalesced into the same tick."""
    service = make_service(network_delay=0.02)

    async def go():
        doomed = asyncio.create_task(
            service.query(CACHE_ID, SUM_SQL, client_id="doomed")
        )
        healthy = asyncio.create_task(
            service.query(
                CACHE_ID,
                "SELECT SUM(latency) WITHIN 0.1 FROM links",
                client_id="healthy",
            )
        )
        await asyncio.sleep(0.005)  # both suspended at the refresh tick
        doomed.cancel()
        result = await healthy
        assert result.answer.meets(0.1)
        with pytest.raises(asyncio.CancelledError):
            await doomed

    run(go())


def test_cancelled_singleflight_leader_does_not_strand_followers():
    service = make_service(network_delay=0.02)

    async def go():
        leader = asyncio.create_task(
            service.query(CACHE_ID, SUM_SQL, client_id="leader")
        )
        await asyncio.sleep(0.005)  # leader suspended at the refresh tick
        follower = asyncio.create_task(
            service.query(CACHE_ID, SUM_SQL, client_id="follower")
        )
        await asyncio.sleep(0)  # follower joins the leader's flight
        leader.cancel()
        result = await follower  # re-executes instead of raising/hanging
        assert result.answer.meets(5)
        assert not result.cached

    run(go())


def test_custom_cost_model_queries_do_not_share_answers():
    from repro.replication import UniformCostModel

    service = make_service()

    async def go():
        priced = await service.query(
            CACHE_ID, SUM_SQL, cost=UniformCostModel(3.0)
        )
        default = await service.query(CACHE_ID, SUM_SQL)
        assert not priced.cached
        assert not default.cached  # the priced answer was never cached
        assert priced.answer.meets(5) and default.answer.meets(5)

    run(go())


def test_inflight_bookkeeping_is_bounded():
    service = make_service()

    async def go():
        for index in range(20):
            await service.query(
                CACHE_ID,
                f"SELECT SUM(traffic) WITHIN {20 + index} FROM links",
                client_id=f"client-{index}",
            )

    run(go())
    assert service._inflight_by_client == {}


def test_stats_shape():
    service = make_service()
    run(service.query(CACHE_ID, SUM_SQL))
    stats = service.stats()
    assert stats["queries_served"] == 1
    assert set(stats) == {
        "queries_served",
        "queries_rejected",
        "singleflight_joins",
        "degraded_answers",
        "faults",
        "result_cache",
        "scheduler",
    }
    assert stats["degraded_answers"] == 0
    assert stats["faults"]["breakers"] == {}


def test_cells_and_group_keys_read_back_with_absolute_types():
    """An ``int`` EXACT key stays ``int`` and a TEXT key ``str`` through
    GROUP BY; a bounded cell reads as ``float`` when exact and ``Bound``
    when wide, on a master and on a cache alike."""
    from repro.core.bound import Bound
    from repro.workloads.stocks import stock_master_table, volatile_stock_day

    system = build_netmon_system()
    source, cache = system.source("net"), system.cache(CACHE_ID)
    source.add_table(stock_master_table(volatile_stock_day(5)))
    cache.subscribe_table(source, "stocks")
    service = make_service(system)
    for sql, kind in (
        ("SELECT SUM(traffic) WITHIN 50 FROM links GROUP BY from_node", int),
        ("SELECT SUM(price) WITHIN 5 FROM stocks GROUP BY ticker", str),
    ):
        groups = run(service.query(CACHE_ID, sql)).answer.groups
        assert groups and all(type(value) is kind for g in groups for value in g.key)

    master, cached = source.table("links"), cache.table("links")
    assert all(type(row["traffic"]) is float for row in master.rows())
    assert type(master.row(1)["from_node"]) is int
    kinds = set()
    for tid in cached.tids():
        lo, hi = cached.columns.cell(tid, "traffic")
        cell, expected = cached.row(tid)["traffic"], lo if lo == hi else Bound(lo, hi)
        assert type(cell) is type(expected) and cell == expected
        kinds.add(type(cell))
    assert kinds == {float, Bound}
