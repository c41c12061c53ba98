"""RefreshScheduler: per-tick coalescing, amortization, attribution."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.bound import Bound
from repro.core.executor import PlannedRefresh
from repro.core.refresh.base import RefreshPlan
from repro.errors import ReplicationProtocolError
from repro.extensions.batching import BatchedCostModel
from repro.service.scheduler import RefreshScheduler
from repro.storage.columnar import harvest_candidates
from repro.storage.schema import Column, ColumnKind, Schema
from repro.storage.table import Table

from tests.service.conftest import CACHE_ID, FakeCache, build_netmon_system


def make_table(n_rows: int, name: str = "t") -> Table:
    schema = Schema(
        [Column("x", ColumnKind.BOUNDED), Column("cost", ColumnKind.EXACT)],
        name=name,
    )
    table = Table(name, schema)
    for i in range(n_rows):
        table.insert({"x": Bound(0.0, 10.0), "cost": 1.0})
    return table


def planned(table: Table, tids: set[int], **kwargs) -> PlannedRefresh:
    return PlannedRefresh(
        table, RefreshPlan(frozenset(tids), float(len(tids))), 1.0, "SUM", **kwargs
    )


def flexible(table: Table, tids: set[int], required_width: float) -> PlannedRefresh:
    """A SUM plan on ``x`` with its §8.2 metadata, as the executor yields it."""
    return PlannedRefresh(
        table,
        RefreshPlan(frozenset(tids), float(len(tids))),
        max_width=30.0,
        aggregate="SUM",
        candidates=harvest_candidates(table.columns, "x", np.ones(len(table))),
        required_width=required_width,
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
def test_overlapping_plans_coalesce_to_one_refresh():
    table = make_table(6)
    cache = FakeCache({tid: "s1" for tid in range(1, 7)})
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=5.0, marginal=1.0))

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, planned(table, {1, 2, 3})),
            scheduler.submit(cache, planned(table, {2, 3, 4})),
            scheduler.submit(cache, planned(table, {3, 4, 5})),
        )

    plans = run(go())
    # One deduplicated batch hit the cache.
    assert cache.calls == [frozenset({1, 2, 3, 4, 5})]
    assert scheduler.stats.ticks == 1
    assert scheduler.stats.tuples_requested == 9
    assert scheduler.stats.tuples_refreshed == 5
    # Every query got its own tids back.
    assert [set(p.tids) for p in plans] == [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}]
    # Attribution sums exactly to the amortized total: one setup + 5 marginal.
    assert scheduler.stats.total_cost_paid == pytest.approx(10.0)
    assert sum(p.total_cost for p in plans) == pytest.approx(10.0)
    # A query sharing all its tuples pays less than it would alone (8.0).
    assert all(p.total_cost < 8.0 for p in plans)


def test_uniform_costs_without_model():
    table = make_table(4)
    cache = FakeCache({tid: "s1" for tid in range(1, 5)})
    scheduler = RefreshScheduler()  # no cost model: 1 per tuple, no setup

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, planned(table, {1, 2})),
            scheduler.submit(cache, planned(table, {2, 3})),
        )

    plans = run(go())
    assert scheduler.stats.total_cost_paid == pytest.approx(3.0)
    assert sum(p.total_cost for p in plans) == pytest.approx(3.0)
    # The shared tuple's unit cost is split evenly.
    assert [p.total_cost for p in plans] == [pytest.approx(1.5), pytest.approx(1.5)]


def test_multi_source_attribution_splits_setup_per_source():
    table = make_table(4)
    cache = FakeCache({1: "a", 2: "a", 3: "b", 4: "b"})
    scheduler = RefreshScheduler(
        cost_model=BatchedCostModel(setup=10.0, marginal=1.0), rebatch=False
    )

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, planned(table, {1, 2})),  # source a only
            scheduler.submit(cache, planned(table, {3, 4})),  # source b only
        )

    plans = run(go())
    # Two sources contacted once each: 2 setups + 4 marginals.
    assert scheduler.stats.total_cost_paid == pytest.approx(24.0)
    assert scheduler.stats.source_requests == 2
    # No sharing: each query pays its own source's full price.
    assert [p.total_cost for p in plans] == [pytest.approx(12.0), pytest.approx(12.0)]


def test_separate_tables_dispatch_separately():
    t1, t2 = make_table(3, "t1"), make_table(3, "t2")
    cache = FakeCache({tid: "s1" for tid in range(1, 4)})
    scheduler = RefreshScheduler()

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, planned(t1, {1, 2})),
            scheduler.submit(cache, planned(t2, {1, 2})),
        )

    run(go())
    assert scheduler.stats.ticks == 1
    assert len(cache.calls) == 2  # one batch per (cache, table)


def test_sequential_submissions_form_sequential_ticks():
    table = make_table(3)
    cache = FakeCache({tid: "s1" for tid in range(1, 4)})
    scheduler = RefreshScheduler()

    async def go():
        first = await scheduler.submit(cache, planned(table, {1}))
        second = await scheduler.submit(cache, planned(table, {2}))
        return first, second

    run(go())
    assert scheduler.stats.ticks == 2
    assert cache.calls == [frozenset({1}), frozenset({2})]


def test_cross_query_rebatch_steers_to_contacted_source():
    """A SUM plan with slack swaps an isolated-source tuple for a cheap
    tuple from a source another in-flight query already pays for."""
    schema = Schema([Column("x", ColumnKind.BOUNDED)], name="t")
    table = Table("t", schema)
    for _ in range(4):
        table.insert({"x": Bound(0.0, 10.0)})
    # tid 1, 2 from source a; tid 3, 4 from source b.
    cache = FakeCache({1: "a", 2: "a", 3: "b", 4: "b"})
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=50.0, marginal=1.0))

    # Query 1 (not rebatchable) pins source a.
    fixed = planned(table, {1})
    # Query 2 planned tid 3 (source b) but any single tuple satisfies it:
    # slack 0 with equal widths means tid 2 (source a, setup already sunk)
    # does the same job without a second setup.
    steerable = flexible(table, {3}, required_width=10.0)

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, fixed),
            scheduler.submit(cache, steerable),
        )

    plans = run(go())
    assert set(plans[0].tids) == {1}
    # The flexible plan abandons source b entirely for the sunk-setup
    # source — and lands on the very tuple the fixed query refreshes, so
    # the merged batch is one tuple from one source.
    assert set(plans[1].tids) == {1}
    assert scheduler.stats.source_requests == 1
    assert scheduler.stats.total_cost_paid == pytest.approx(51.0)
    assert sum(p.total_cost for p in plans) == pytest.approx(51.0)


def test_large_plan_rebatches_and_drops_a_source():
    """Plan size does not fence the §8.2 pass: a 70-tuple SUM plan whose
    one source-b tuple is worth no more than its slack gives it back and
    saves b's setup.  The pass and its change are counted."""
    schema = Schema([Column("x", ColumnKind.BOUNDED)], name="t")
    table = Table("t", schema)
    for _ in range(69):
        table.insert({"x": Bound(0.0, 10.0)})
    table.insert({"x": Bound(0.0, 5.0)})
    cache = FakeCache({tid: "a" if tid < 70 else "b" for tid in range(1, 71)})
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=50.0, marginal=1.0))
    plan = run(
        scheduler.submit(cache, flexible(table, set(range(1, 71)), required_width=690.0))
    )
    assert set(plan.tids) == set(range(1, 70))
    assert scheduler.stats.source_requests == 1
    assert scheduler.stats.total_cost_paid == pytest.approx(50.0 + 69.0)
    events = {
        event: scheduler.registry.value_of("trapp_scheduler_events_total", event=event)
        for event in ("rebatch", "rebatch_changed")
    }
    assert events == {"rebatch": 1, "rebatch_changed": 1}


def test_single_source_table_skips_the_rebatch_routing_sweep():
    """With one source behind a table there is nothing to steer toward:
    the plan goes out as chosen and no row is routed on the way."""
    schema = Schema([Column("x", ColumnKind.BOUNDED)], name="t")
    table = Table("t", schema)
    for _ in range(4):
        table.insert({"x": Bound(0.0, 10.0)})

    class CountingCache(FakeCache):
        routed = 0

        def source_of_tuple(self, table, tid):
            self.routed += 1
            return super().source_of_tuple(table, tid)

    cache = CountingCache({tid: "a" for tid in range(1, 5)})
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=50.0, marginal=1.0))
    plan = run(scheduler.submit(cache, flexible(table, {3}, required_width=10.0)))
    assert set(plan.tids) == {3}
    # Only the planned tuple is routed (to account its source as
    # contacted), not every row of the table.
    assert cache.routed == 1


def test_failure_settles_every_waiter():
    table = make_table(2)

    class ExplodingCache(FakeCache):
        def refresh_batched(self, table, tids, batch_cost=None):
            raise ReplicationProtocolError("source is gone")

    cache = ExplodingCache({1: "s1", 2: "s1"})
    scheduler = RefreshScheduler()

    async def go():
        return await asyncio.gather(
            scheduler.submit(cache, planned(table, {1})),
            scheduler.submit(cache, planned(table, {2})),
            return_exceptions=True,
        )

    results = run(go())
    assert all(isinstance(r, ReplicationProtocolError) for r in results)


# ----------------------------------------------------------------------
def test_real_cache_roundtrip_collapses_bounds():
    """End to end against a real replication cache: coalesced refreshes
    flow through the protocol and collapse the cached bounds."""
    system = build_netmon_system(n_links=12)
    cache = system.cache(CACHE_ID)
    table = cache.table("links")
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=5.0, marginal=1.0))
    tids = [row.tid for row in table.rows()][:6]
    assert all(table.row(tid).bound("traffic").width > 0 for tid in tids)

    async def go():
        return await asyncio.gather(
            scheduler.submit(
                cache, planned(table, set(tids[:4]))
            ),
            scheduler.submit(
                cache, planned(table, set(tids[2:]))
            ),
        )

    run(go())
    for tid in tids:
        assert table.row(tid).bound("traffic").width == 0.0
    assert cache.refresh_requests_sent == 1


# ----------------------------------------------------------------------
# Adaptive tick sizing (ROADMAP item / ISSUE 3 satellite)
# ----------------------------------------------------------------------
class TestAdaptiveTick:
    def test_grows_under_load(self):
        scheduler = RefreshScheduler(adaptive_tick=True, tick_max=0.008)
        assert scheduler.tick_interval == 0.0
        scheduler._adapt_tick(plans_in_tick=3)
        assert scheduler.tick_interval == scheduler.TICK_QUANTUM
        grown = []
        for _ in range(6):
            scheduler._adapt_tick(plans_in_tick=3)
            grown.append(scheduler.tick_interval)
        assert grown == sorted(grown), "interval must grow monotonically"
        assert scheduler.tick_interval == 0.008, "growth is capped at tick_max"
        assert scheduler.stats.tick_grows >= 3

    def test_shrinks_when_idle(self):
        scheduler = RefreshScheduler(
            adaptive_tick=True, tick_interval=0.008, tick_min=0.0
        )
        scheduler._adapt_tick(plans_in_tick=1)
        assert scheduler.tick_interval == 0.004
        for _ in range(6):
            scheduler._adapt_tick(plans_in_tick=1)
        assert scheduler.tick_interval == 0.0, "lone plans decay to tick_min"
        assert scheduler.stats.tick_shrinks >= 3

    def test_disabled_by_default(self):
        scheduler = RefreshScheduler()
        scheduler._adapt_tick(plans_in_tick=10)
        assert scheduler.tick_interval == 0.0
        assert scheduler.stats.tick_grows == 0

    def test_queued_backlog_counts_as_load(self):
        scheduler = RefreshScheduler(adaptive_tick=True)
        scheduler._pending.append(None)  # one plan already waiting behind the tick
        scheduler._adapt_tick(plans_in_tick=1)
        assert scheduler.tick_interval == scheduler.TICK_QUANTUM
        scheduler._pending.clear()

    def test_end_to_end_both_directions(self):
        """Bursts widen the window; a lone trailing query narrows it."""
        table = make_table(6)
        cache = FakeCache({tid: "s1" for tid in range(1, 7)})
        scheduler = RefreshScheduler(adaptive_tick=True, tick_max=0.004)

        async def burst():
            return await asyncio.gather(
                scheduler.submit(cache, planned(table, {1, 2})),
                scheduler.submit(cache, planned(table, {2, 3})),
                scheduler.submit(cache, planned(table, {3, 4})),
            )

        run(burst())
        widened = scheduler.tick_interval
        assert widened > 0.0
        assert scheduler.stats.tick_grows >= 1

        async def lone():
            return await scheduler.submit(cache, planned(table, {5}))

        run(lone())
        assert scheduler.tick_interval < widened
        assert scheduler.stats.tick_shrinks >= 1

    def test_operator_interval_above_cap_is_not_shrunk_by_load(self):
        scheduler = RefreshScheduler(
            adaptive_tick=True, tick_interval=0.2, tick_max=0.05
        )
        scheduler._adapt_tick(plans_in_tick=5)
        assert scheduler.tick_interval == 0.2
        assert scheduler.stats.tick_grows == 0

    def test_idle_tick_never_raises_the_interval(self):
        scheduler = RefreshScheduler(
            adaptive_tick=True, tick_interval=0.0, tick_min=0.01
        )
        scheduler._adapt_tick(plans_in_tick=1)
        assert scheduler.tick_interval == 0.0
        assert scheduler.stats.tick_shrinks == 0


# ----------------------------------------------------------------------
class TestPerShardPricing:
    """Per-source cost parameters: each shard's message is priced (and
    attributed) with that shard's own setup/marginal."""

    def test_receipts_use_per_shard_parameters(self):
        table = make_table(4)
        cache = FakeCache({1: "near", 2: "near", 3: "far", 4: "far"})
        scheduler = RefreshScheduler(
            cost_model=BatchedCostModel(
                setup=10.0,
                marginal=4.0,
                setup_by_source={"near": 2.0},
                marginal_by_source={"near": 1.0},
            ),
            rebatch=False,
        )

        async def go():
            return await asyncio.gather(
                scheduler.submit(cache, planned(table, {1, 2})),  # near
                scheduler.submit(cache, planned(table, {3, 4})),  # far
            )

        plans = run(go())
        # near: 2 + 1·2 = 4; far: 10 + 4·2 = 18.
        assert scheduler.stats.total_cost_paid == pytest.approx(22.0)
        assert [p.total_cost for p in plans] == [
            pytest.approx(4.0),
            pytest.approx(18.0),
        ]
        assert sum(p.total_cost for p in plans) == pytest.approx(
            scheduler.stats.total_cost_paid
        )

    def test_rebatch_prefers_the_cheap_sunk_shard(self):
        """With per-shard setups, steering happens toward the shard whose
        setup the tick already sinks — exactly the §8.2 sharded regime."""
        schema = Schema([Column("x", ColumnKind.BOUNDED)], name="t")
        table = Table("t", schema)
        for _ in range(4):
            table.insert({"x": Bound(0.0, 10.0)})
        cache = FakeCache({1: "near", 2: "near", 3: "far", 4: "far"})
        scheduler = RefreshScheduler(
            cost_model=BatchedCostModel(
                setup=50.0,
                marginal=1.0,
                setup_by_source={"near": 50.0, "far": 50.0},
            )
        )
        fixed = planned(table, {1})  # pins shard "near"
        steerable = flexible(table, {3}, required_width=10.0)

        async def go():
            return await asyncio.gather(
                scheduler.submit(cache, fixed),
                scheduler.submit(cache, steerable),
            )

        plans = run(go())
        # The flexible plan abandoned the far shard for the sunk one.
        assert set(plans[1].tids) <= {1, 2}
        assert scheduler.stats.source_requests == 1

    def test_sharded_table_end_to_end_per_shard_receipts(self):
        """Against a real sharded cache: one tick's merged plan fans out
        into one message per contacted shard, priced per shard."""
        system = TrappSystemFactory()
        cache = system.cache("monitor")
        table = cache.table("links")
        marginals = {"net/0": 1.0, "net/1": 2.0, "net/2": 3.0}
        scheduler = RefreshScheduler(
            cost_model=BatchedCostModel(
                setup=5.0, marginal=2.0, marginal_by_source=marginals
            ),
            rebatch=False,
        )
        by_shard = {
            shard: sorted(table.shard_map.tids_of(shard))
            for shard in table.shard_map.shards()
        }

        async def go():
            return await asyncio.gather(
                scheduler.submit(
                    cache, planned(table, set(by_shard["net/0"][:2]))
                ),
                scheduler.submit(
                    cache, planned(table, set(by_shard["net/2"][:3]))
                ),
            )

        plans = run(go())
        assert scheduler.stats.source_requests == 2
        # shard 0: 5 + 1·2 = 7; shard 2: 5 + 3·3 = 14.
        assert scheduler.stats.total_cost_paid == pytest.approx(7.0 + 14.0)
        assert plans[0].total_cost == pytest.approx(7.0)
        assert plans[1].total_cost == pytest.approx(14.0)


def TrappSystemFactory():
    """A 3-shard netmon system with synced bounds (helper for the class
    above; module-level so test order cannot shadow it)."""
    import random

    from repro.replication.system import TrappSystem
    from repro.workloads.netmon import build_master_table, generate_topology

    rng = random.Random(5)
    system = TrappSystem()
    system.add_source("net", shards=3).add_table(
        build_master_table(generate_topology(4, 12, rng), rng)
    )
    system.add_cache("monitor", shards={"links": "net"})
    system.clock.advance(50.0)
    system.cache("monitor").sync_bounds()
    return system
