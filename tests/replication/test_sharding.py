"""Horizontal sharding: ShardedSource, the cache's owner map and recorded
source set, per-shard receipts."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReplicationProtocolError, TrappError
from repro.extensions.batching import BatchedCostModel
from repro.replication.sharding import ShardedSource, round_robin
from repro.replication.source import DataSource
from repro.replication.system import TrappSystem
from repro.workloads.netmon import build_master_table, generate_topology


def master_table(n_links=12, seed=3):
    rng = random.Random(seed)
    return build_master_table(generate_topology(4, n_links, rng), rng)


def build_sharded(n_shards=3, n_links=12, seed=3, age=50.0):
    system = TrappSystem()
    sharded = system.add_source("net", shards=n_shards)
    sharded.add_table(master_table(n_links, seed))
    cache = system.add_cache("monitor", shards={"links": "net"})
    system.clock.advance(age)
    cache.sync_bounds()
    return system, sharded, cache


# ----------------------------------------------------------------------
# ShardedSource (master side)
# ----------------------------------------------------------------------
class TestShardedSource:
    def test_partitions_are_disjoint_and_complete(self):
        master = master_table()
        sharded = ShardedSource.create("net", 3)
        partitions = sharded.add_table(master)
        seen: set[int] = set()
        for index, partition in enumerate(partitions):
            tids = set(partition.tids())
            assert not (tids & seen)
            seen |= tids
            for tid in tids:
                assert round_robin(tid, 3) == index
        assert seen == set(master.tids())

    def test_shard_for_and_unknown_tuple(self):
        sharded = ShardedSource.create("net", 2)
        sharded.add_table(master_table())
        assert sharded.shard_id_of("links", 2) == "net/0"
        assert sharded.shard_id_of("links", 3) == "net/1"
        with pytest.raises(ReplicationProtocolError):
            sharded.shard_for("links", 9999)
        with pytest.raises(ReplicationProtocolError):
            sharded.partitions("unknown")

    def test_insert_allocates_global_tids(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=6)
        values = {
            "from_node": 1, "to_node": 2, "latency": 5.0,
            "bandwidth": 50.0, "traffic": 100.0, "cost": 2.0,
        }
        first = sharded.insert_row("links", dict(values))
        second = sharded.insert_row("links", dict(values))
        assert second.tid == first.tid + 1
        # The new tuples landed on their round-robin shards, and
        # the cache's merged table (and its owner map) followed suit.
        table = cache.table("links")
        for change in (first, second):
            shard_id = f"net/{round_robin(change.tid, 3)}"
            assert sharded.shard_id_of("links", change.tid) == shard_id
            assert change.tid in table
            assert cache.source_of_tuple(table, change.tid) == shard_id

    def test_delete_routes_and_unroutes(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=6)
        table = cache.table("links")
        sharded.delete_row("links", 4)
        assert 4 not in table
        with pytest.raises(ReplicationProtocolError):
            cache.source_of_tuple(table, 4)
        with pytest.raises(ReplicationProtocolError):
            sharded.shard_for("links", 4)

    def test_apply_update_routes_to_owning_shard(self):
        from repro.replication.messages import ObjectKey

        system, sharded, cache = build_sharded(n_shards=3, n_links=6)
        table = cache.table("links")
        # Force a value far outside every bound: a value-initiated
        # refresh must reach the cache through the owning shard.
        sharded.apply_update(ObjectKey("links", 5, "traffic"), 1e7)
        assert table.row(5).bound("traffic").contains(1e7)
        owner = sharded.shard_for("links", 5)
        assert owner.value_initiated_refreshes == 1

    def test_constructor_validation(self):
        with pytest.raises(ReplicationProtocolError):
            ShardedSource("net", [])
        twin = DataSource("dup")
        with pytest.raises(ReplicationProtocolError):
            ShardedSource("net", [twin, DataSource("dup")])
        with pytest.raises(ReplicationProtocolError):
            ShardedSource.create("net", 0)

    def test_duplicate_table_rejected(self):
        sharded = ShardedSource.create("net", 2)
        sharded.add_table(master_table())
        with pytest.raises(ReplicationProtocolError):
            sharded.add_table(master_table())


# ----------------------------------------------------------------------
# Cache side: shard-aware subscription, routing, receipts
# ----------------------------------------------------------------------
class TestShardedCache:
    def test_subscribe_merges_partitions_into_one_table(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=12)
        table = cache.table("links")
        assert len(table) == 12
        assert cache.source_ids_of_table("links") == {"net/0", "net/1", "net/2"}
        assert cache.sources_of_table(table) == ["net/0", "net/1", "net/2"]

    def test_recorded_source_set_names_shards_owning_no_tuple(self):
        """The recorded set is what was subscribed from, not what the
        tuples happen to cover: a shard owning nothing is still listed,
        and deleting a shard's last tuple keeps it listed."""
        system, sharded, cache = build_sharded(n_shards=4, n_links=3)
        table = cache.table("links")
        assert {cache.source_of_tuple(table, tid) for tid in table.tids()} == {
            "net/1", "net/2", "net/3",
        }
        every_shard = ["net/0", "net/1", "net/2", "net/3"]
        assert cache.sources_of_table(table) == every_shard
        sharded.delete_row("links", 1)
        assert cache.sources_of_table(table) == every_shard

    def test_adopted_snapshot_keeps_the_owner_map_and_source_set(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=6)
        group = system.add_group("g")
        group.add_replica(cache)
        joiner, _ = system.admit_cache("joiner", "g")
        table = joiner.table("links")
        assert joiner.sources_of_table(table) == ["net/0", "net/1", "net/2"]
        for tid in table.tids():
            assert joiner.source_of_tuple(table, tid) == (
                f"net/{round_robin(tid, 3)}"
            )
        joiner.unsubscribe_all()
        assert joiner.source_ids_of_table("links") == frozenset()

    def test_source_of_tuple_uses_shard_map(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=12)
        table = cache.table("links")
        for row in table.rows():
            assert cache.source_of_tuple(table, row.tid) == (
                f"net/{round_robin(row.tid, 3)}"
            )

    def test_source_of_tuple_unknown_tid_raises(self):
        system, sharded, cache = build_sharded()
        table = cache.table("links")
        with pytest.raises(ReplicationProtocolError):
            cache.source_of_tuple(table, 9999)

    def test_refresh_batched_contacts_only_owning_shards(self):
        """A shard contributing zero tuples gets no message and no receipt."""
        system, sharded, cache = build_sharded(n_shards=3, n_links=12)
        table = cache.table("links")
        only_shard_zero = [
            tid for tid in table.tids() if cache.source_of_tuple(table, tid) == "net/0"
        ]
        receipt = cache.refresh_batched(
            table, only_shard_zero, BatchedCostModel(setup=5.0, marginal=1.0)
        )
        assert receipt.requests_sent == 1
        (per_source,) = receipt.per_source
        assert per_source.source_id == "net/0"
        assert per_source.tids == frozenset(only_shard_zero)
        assert receipt.total_cost == pytest.approx(5.0 + len(only_shard_zero))

    def test_refresh_batched_groups_per_shard(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=12)
        table = cache.table("links")
        receipt = cache.refresh_batched(
            table, table.tids(), BatchedCostModel(setup=5.0, marginal=1.0)
        )
        assert receipt.requests_sent == 3
        assert {r.source_id for r in receipt.per_source} == {
            "net/0", "net/1", "net/2",
        }
        # Each shard was asked exactly for its own tuples, priced per shard.
        for per_source in receipt.per_source:
            assert per_source.tids == {
                tid
                for tid in table.tids()
                if cache.source_of_tuple(table, tid) == per_source.source_id
            }
            assert per_source.cost == pytest.approx(5.0 + len(per_source.tids))
        for row in table.rows():
            assert row.bound("traffic").width == 0.0

    def test_refresh_batched_empty_is_empty(self):
        system, sharded, cache = build_sharded()
        table = cache.table("links")
        receipt = cache.refresh_batched(table, [])
        assert receipt.per_source == ()
        assert receipt.requests_sent == 0

    def test_duplicate_tids_across_shards_rejected_without_poisoning(self):
        """Shard partitions must be disjoint; overlapping ones are a
        subscription-time protocol error — and the rejection leaves the
        cache untouched, so a corrected resubscribe under the same name
        succeeds."""
        shard_a, shard_b = DataSource("a"), DataSource("b")
        master = master_table(n_links=4)
        shard_a.add_table(master.copy())
        shard_b.add_table(master.copy())
        sharded = ShardedSource("net", [shard_a, shard_b])
        sharded._tables.add("links")  # bypass add_table's partitioning
        system = TrappSystem()
        cache = system.add_cache("c1")
        with pytest.raises(ReplicationProtocolError, match="disjoint"):
            cache.subscribe_table(sharded, "links")
        # Nothing leaked: no table, no subscriptions, and a valid
        # sharded source can still claim the name.
        assert "links" not in cache.catalog
        assert not cache.subscribed_keys()
        fixed = ShardedSource.create("net2", 2)
        fixed.add_table(master.copy())
        table = cache.subscribe_table(fixed, "links")
        assert len(table) == 4
        assert cache.sources_of_table(table) == ["net2/0", "net2/1"]

    def test_sources_of_table_unsharded_and_empty(self):
        system = TrappSystem()
        source = system.add_source("s1")
        source.add_table(master_table())
        cache = system.add_cache("c1")
        table = cache.subscribe_table(source, "links")
        assert cache.sources_of_table(table) == ["s1"]
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        empty = Table("empty", Schema.of(x="bounded"))
        assert cache.sources_of_table(empty) == []


# ----------------------------------------------------------------------
# TrappSystem wiring
# ----------------------------------------------------------------------
class TestSystemShardsApi:
    def test_add_source_registers_every_shard(self):
        system = TrappSystem()
        sharded = system.add_source("net", shards=3)
        assert isinstance(sharded, ShardedSource)
        assert system.source("net") is sharded
        assert system.source("net/1") is sharded.shards[1]
        with pytest.raises(TrappError):
            system.add_source("net/1")

    def test_add_source_unsharded_unchanged(self):
        system = TrappSystem()
        source = system.add_source("s1")
        assert isinstance(source, DataSource)

    def test_add_cache_shards_subscribes(self):
        system, sharded, cache = build_sharded()
        assert "links" in cache.catalog
        # Sugar only: a second subscription attempt still errors.
        with pytest.raises(ReplicationProtocolError):
            cache.subscribe_table(sharded, "links")

    def test_add_cache_accepts_source_objects(self):
        system = TrappSystem()
        sharded = system.add_source("net", shards=2)
        sharded.add_table(master_table())
        cache = system.add_cache("monitor", shards={"links": sharded})
        assert cache.source_ids_of_table("links") == {"net/0", "net/1"}

    def test_sharded_system_answers_queries(self):
        system, sharded, cache = build_sharded(n_shards=3, n_links=12)
        answer = system.query(
            "monitor", "SELECT SUM(traffic) WITHIN 10 FROM links"
        )
        assert answer.width <= 10 + 1e-9
        # Refreshes crossed at least two shards (round-robin striping).
        table = cache.table("links")
        shards_hit = {cache.source_of_tuple(table, tid) for tid in answer.refreshed}
        assert len(shards_hit) >= 2
