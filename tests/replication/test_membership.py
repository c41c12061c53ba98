"""Elastic membership: detach, snapshot admission, master migration.

The ISSUE 9 membership protocol at the replication layer:
:meth:`CacheGroup.detach_replica` must unwind every trace of a departing
replica (registry, subscriptions, refresh-monitor trackers, fan-out
flags), :meth:`CacheGroup.admit_replica` must bring a late joiner into
policy lockstep from a sibling's snapshot *without touching the source's
refresh ledger*, and :meth:`ShardedSource.migrate_master` must move a
tuple's mastership — subscriptions included — without perturbing any
cache's bound state.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.errors import ReplicationProtocolError
from repro.extensions.batching import BatchedCostModel
from repro.replication.cache import DataCache
from repro.replication.messages import MasterMigration, ObjectKey
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.workloads.netmon import paper_master_table
from tests.oracle.percache_monitor import entries_for_cache
from tests.oracle.percell_sync import table_width_per_key


def make_master(n: int = 6, name: str = "t") -> Table:
    table = Table(name, Schema.of(x="bounded"))
    for index in range(n):
        table.insert({"x": float(10 * (index + 1))})
    return table


def build_group_system(
    n_caches: int = 2, n_shards: int | None = 2
) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s", shards=n_shards).add_table(make_master())
    system.add_group("edge")
    for index in range(n_caches):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    return system


def shard_monitors(system: TrappSystem):
    return [shard.monitor for shard in system.source("s")]


# ----------------------------------------------------------------------
# Detach
# ----------------------------------------------------------------------
def test_detach_unwinds_registry_and_subscriptions():
    system = build_group_system(3)
    group = system.group("edge")
    departed = group.detach_replica("edge/1")
    assert group.cache_ids() == ["edge/0", "edge/2"]
    assert departed.group is None
    assert list(departed.catalog.names()) == []
    assert departed.subscribed_sources() == []
    # Survivors still serve: fan-out stays on and masters still push.
    for shard in system.source("s"):
        assert shard.refresh_fanout is group
    system.source("s").apply_update(ObjectKey("t", 1, "x"), 500.0)
    assert group.cache("edge/0").refreshes_received > 0


def test_detach_evicts_monitor_trackers():
    """Regression: the per-object cache index held phantom subscribers.

    Every (cache, object) tracker of the departing replica must leave
    the refresh monitors of every shard it subscribed to — a leaked
    tracker keeps pricing refreshes for, and pushing fan-out at, a cache
    that no longer exists.
    """
    system = build_group_system(3)
    group = system.group("edge")
    before = sum(m.tracked_count() for m in shard_monitors(system))
    assert before == 3 * 6  # 3 members x 6 tracked objects

    group.detach_replica("edge/1")
    after = sum(m.tracked_count() for m in shard_monitors(system))
    assert after == 2 * 6
    for monitor in shard_monitors(system):
        assert entries_for_cache(monitor, "edge/1") == []
    # The per-object index must not remember the cache either.
    for shard in system.source("s"):
        for key, _ in entries_for_cache(shard.monitor, "edge/0"):
            assert "edge/1" not in shard.monitor.caches_tracking(key)


def test_detach_to_empty_group_resets_fanout():
    system = build_group_system(2)
    group = system.group("edge")
    group.detach_replica("edge/0")
    group.detach_replica("edge/1")
    assert len(group) == 0
    assert group.table_names() == []
    for shard in system.source("s"):
        assert shard.refresh_fanout is None
    assert sum(m.tracked_count() for m in shard_monitors(system)) == 0


def test_detach_rejects_non_members():
    system = build_group_system(2)
    stranger = DataCache("stranger")
    with pytest.raises(ReplicationProtocolError):
        system.group("edge").detach_replica(stranger)


def test_system_detach_cache_unregisters():
    system = build_group_system(2)
    detached = system.detach_cache("edge/1")
    assert detached.cache_id == "edge/1"
    assert system.group("edge").cache_ids() == ["edge/0"]
    with pytest.raises(Exception):
        system.cache("edge/1")


@pytest.mark.parametrize("route", ["system", "service"])
def test_a_cache_added_again_under_its_id_refreshes_itself(route):
    """Detach a cache, add a new one under the same id: a ``WITHIN 0``
    statement through ``TrappSystem.query`` or ``QueryService.query`` is
    answered exactly, and every refresh it needs lands in the new cache —
    nothing keeps the detached one as the id's refresher."""
    system = TrappSystem()
    source = system.add_source("node")
    source.add_table(paper_master_table())
    sql = "SELECT SUM(latency) WITHIN 0 FROM links"

    async def scenario():
        service = QueryService(system)

        async def query():
            if route == "system":
                return system.query("monitor", sql)
            return (await service.query("monitor", sql)).answer

        old = system.add_cache("monitor")
        old.subscribe_table(source, "links")
        system.clock.advance(60.0)
        await query()
        sent = old.refresh_requests_sent
        assert sent > 0
        system.detach_cache("monitor")
        new = system.add_cache("monitor")
        new.subscribe_table(source, "links")
        system.clock.advance(60.0)
        answer = await query()
        return old, sent, new, answer

    old, sent, new, answer = asyncio.run(scenario())
    master = source.table("links")
    truth = math.fsum(master.row(tid).number("latency") for tid in master.tids())
    assert answer.bound.is_exact and answer.bound.lo == pytest.approx(truth)
    assert answer.refreshed and new.refresh_requests_sent > 0
    assert old.refresh_requests_sent == sent
    cached = new.table("links")
    assert all(cached.row(tid).bound("latency").is_exact for tid in answer.refreshed)


# ----------------------------------------------------------------------
# Snapshot admission
# ----------------------------------------------------------------------
def test_admission_is_snapshot_not_cold_resubscription():
    """The acceptance criterion: the joiner's first answer costs no
    resubscription refresh, receipt-verified."""
    system = build_group_system(2)
    group = system.group("edge")
    system.clock.advance(8.0)
    for cache in group:
        cache.sync_bounds()
    # Tighten some bounds first so the snapshot carries real policy state.
    system.query("edge/0", "SELECT SUM(x) WITHIN 5 FROM t")
    ledger_before = [
        shard.query_initiated_refreshes for shard in system.source("s")
    ]

    joiner, receipt = system.admit_cache("edge/2", "edge")

    # Receipt: every shard transferred its six tracked objects, priced
    # 1-per-tuple absent any cost model.
    assert sorted(per.source_id for per in receipt.per_source) == [
        "s/0",
        "s/1",
    ]
    assert sum(len(per.tids) for per in receipt.per_source) == 6
    assert receipt.total_cost == 6.0
    # The source-side refresh ledger never moved: no register(), no
    # minted bounds, no query-initiated refreshes.
    assert joiner.refresh_requests_sent == 0
    assert [
        shard.query_initiated_refreshes for shard in system.source("s")
    ] == ledger_before

    # First query: bit-identical to a sibling, still without refreshing.
    sql = "SELECT SUM(x) WITHIN 1000 FROM t"
    mine = system.query("edge/2", sql)
    theirs = system.query("edge/0", sql)
    assert mine.bound.lo == theirs.bound.lo
    assert mine.bound.hi == theirs.bound.hi
    assert joiner.refresh_requests_sent == 0


def test_admitted_joiner_enters_policy_lockstep():
    """Post-admission, a refresh paid by any member advances the joiner
    identically: widths stay bit-identical afterwards."""
    system = build_group_system(2)
    group = system.group("edge")
    joiner, _ = system.admit_cache("edge/2", "edge")
    system.clock.advance(6.0)
    for cache in group:
        cache.sync_bounds()
    # Force refreshes through a *sibling*; fan-out must carry the joiner.
    system.query("edge/0", "SELECT SUM(x) WITHIN 0 FROM t")
    assert joiner.fanout_refreshes_received > 0
    now = system.clock.now()
    assert table_width_per_key(joiner, "t", now) == table_width_per_key(
        group.cache("edge/0"), "t", now
    )


def test_table_width_is_iteration_order_independent():
    """A snapshot-admitted joiner inserts the same subscriptions sorted,
    veterans insert them in registration order: summed exactly in either
    order, the two siblings' bound functions give bit-identical widths."""
    system = TrappSystem()
    table = Table("t", Schema.of(x="bounded"))
    # Awkward magnitudes: plain left-to-right float addition of these
    # widths is order-sensitive, so ``sum`` over set order diverges.
    for index in range(10):
        table.insert({"x": ((-1) ** index) * (index + 1) ** 3 / 32.0})
    system.add_source("s", shards=2).add_table(table)
    system.add_group("edge")
    system.add_cache("edge/0", shards={"t": "s"}, group="edge")
    system.clock.advance(11.0)
    joiner, _ = system.admit_cache("edge/1", "edge")

    now = system.clock.now()
    for cache in (system.cache("edge/0"), joiner):
        keys = sorted(cache.subscribed_keys("t"), key=lambda k: (k.column, -k.tid))
        reference = math.fsum(
            2.0 * cache.bound_function_of(key).half_width_at(now) for key in keys
        )
        assert table_width_per_key(cache, "t", now) == reference
    assert table_width_per_key(joiner, "t", now) == table_width_per_key(
        system.cache("edge/0"), "t", now
    )


def test_admission_prices_under_donor_model():
    system = build_group_system(2)
    model = BatchedCostModel(setup=4.0, marginal=0.5)
    _, receipt = system.admit_cache("edge/2", "edge", default_model=model)
    expected = sum(
        model.batch_cost(shard.source_id, 3) for shard in system.source("s")
    )
    assert receipt.total_cost == expected


def test_admission_errors():
    system = build_group_system(2)
    group = system.group("edge")
    empty = TrappSystem()
    empty.add_group("hollow")
    with pytest.raises(ReplicationProtocolError):
        empty.admit_cache("c", "hollow")  # no donor to snapshot from
    with pytest.raises(ReplicationProtocolError):
        group.admit_replica(group.cache("edge/0"))  # already a member
    veteran = DataCache("veteran")
    veteran.catalog.create_table("t", Schema.of(x="bounded"))
    with pytest.raises(ReplicationProtocolError):
        veteran.adopt_snapshot(group.cache("edge/0"))  # non-empty cache


# ----------------------------------------------------------------------
# Master migration
# ----------------------------------------------------------------------
def test_migrate_master_moves_row_and_subscriptions():
    system = build_group_system(2)
    sharded = system.source("s")
    origin = sharded.shard_for("t", 1)
    target = sharded.shard_for("t", 2)
    assert origin is not target
    origin_tracked = origin.monitor.tracked_count()
    target_tracked = target.monitor.tracked_count()

    moved_to = sharded.migrate_master("t", 1, sharded.shards.index(target))
    assert moved_to is target
    assert sharded.shard_for("t", 1) is target
    assert 1 not in origin.table("t").tids()
    assert 1 in target.table("t").tids()
    # Subscriptions moved with the master: 2 members x 1 column.
    assert origin.monitor.tracked_count() == origin_tracked - 2
    assert target.monitor.tracked_count() == target_tracked + 2
    # Each cache's owner map repointed the tuple; its recorded source
    # set, every shard, did not move.
    for cache in system.group("edge"):
        table = cache.table("t")
        assert cache.source_of_tuple(table, 1) == target.source_id
        assert cache.sources_of_table(table) == [s.source_id for s in sharded]

    # Writes route through the new master and still reach every cache.
    received = [c.refreshes_received for c in system.group("edge")]
    sharded.apply_update(ObjectKey("t", 1, "x"), 999.0)
    # The counter ticks per refresh pushed (one per subscribed cache) —
    # what matters is that the *new* master did the pushing.
    assert target.value_initiated_refreshes > 0
    assert origin.value_initiated_refreshes == 0
    assert [c.refreshes_received for c in system.group("edge")] == [
        n + 1 for n in received
    ]


def test_migrate_master_preserves_bound_state():
    """Migration is a mastership change, not a data change: no cache's
    bound state may move."""
    system = build_group_system(2)
    group = system.group("edge")
    system.clock.advance(4.0)
    for cache in group:
        cache.sync_bounds()
    now = system.clock.now()
    widths = [table_width_per_key(c, "t", now) for c in group]
    system.source("s").migrate_master("t", 1, 0)
    system.source("s").migrate_master("t", 1, 1)
    assert [table_width_per_key(c, "t", now) for c in group] == widths
    assert all(c.refreshes_received == 0 for c in group)


def test_migrate_master_notifies_subscribers():
    system = build_group_system(1)
    cache = system.cache("edge/0")
    sharded = system.source("s")
    origin = sharded.shard_for("t", 1)
    target = next(s for s in sharded if s is not origin)
    migrations: list[MasterMigration] = []
    original = cache._apply_master_migration
    cache._apply_master_migration = lambda m: (
        migrations.append(m),
        original(m),
    )
    sharded.migrate_master("t", 1, sharded.shards.index(target))
    assert len(migrations) == 1
    assert migrations[0].table == "t"
    assert migrations[0].tid == 1
    assert migrations[0].to_source_id == target.source_id
    assert migrations[0].source_id == origin.source_id


def test_migrate_master_errors_and_noop():
    system = build_group_system(1)
    sharded = system.source("s")
    with pytest.raises(ReplicationProtocolError):
        sharded.migrate_master("t", 99, 0)  # unknown tuple
    with pytest.raises(ReplicationProtocolError):
        sharded.migrate_master("t", 1, 7)  # shard index out of range
    with pytest.raises(ReplicationProtocolError):
        sharded.migrate_master("t", 1, "s/nope")  # unknown shard id
    home = sharded.shard_for("t", 1)
    assert sharded.migrate_master("t", 1, sharded.shards.index(home)) is home
