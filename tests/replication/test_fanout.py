"""CacheGroup: registry, fan-out pushes, leaders, and system wiring."""

from __future__ import annotations

import pytest

from repro.errors import ReplicationProtocolError, TrappError
from repro.extensions.batching import UNIFORM_PRICE, BatchedCostModel, cheapest
from repro.replication.cache import DataCache
from repro.replication.fanout import CacheGroup
from repro.replication.source import DataSource
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_master(n: int = 4, name: str = "t") -> Table:
    table = Table(name, Schema.of(x="bounded"))
    for index in range(n):
        table.insert({"x": float(10 * (index + 1))})
    return table


def build_group_system(n_caches: int = 2, fanout: bool = True) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_group("edge", fanout=fanout)
    for index in range(n_caches):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    return system


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_tracks_tables_and_tuples():
    system = build_group_system(3)
    group = system.group("edge")
    assert group.cache_ids() == ["edge/0", "edge/1", "edge/2"]
    assert group.table_names() == ["t"]
    assert [c.cache_id for c in group.caches_of_table("t")] == group.cache_ids()
    assert group.caches_of_table("absent") == []
    for cache in group:
        assert cache.source_ids_of_table("t") == frozenset({"s"})
        assert cache.source_of_tuple(cache.table("t"), 1) == "s"
    assert len(group) == 3
    assert "edge/1" in group
    assert group.cache("edge/1") in group


def test_registry_absorbs_pre_existing_subscriptions():
    """add_replica on a cache that already subscribed scans its catalog."""
    source = DataSource("s")
    source.add_table(make_master())
    cache = DataCache("late")
    cache.subscribe_table(source, "t")
    group = CacheGroup("g")
    group.add_replica(cache)
    assert group.table_names() == ["t"]
    assert source.refresh_fanout is group


def test_membership_errors():
    group = CacheGroup("g")
    cache = DataCache("c")
    group.add_replica(cache)
    with pytest.raises(ReplicationProtocolError):
        group.add_replica(cache)  # same cache twice
    other = CacheGroup("h")
    with pytest.raises(ReplicationProtocolError):
        other.add_replica(cache)  # a cache replicates within one group
    with pytest.raises(TrappError):
        group.cache("nope")


def test_regions_and_cost_models():
    """A replica's place is priced by its cost model; there is no
    separate region label."""
    group = CacheGroup("g")
    model = BatchedCostModel(setup=3.0)
    group.add_replica(DataCache("a"), cost_model=model)
    group.add_replica(DataCache("b"))
    assert group.cost_model_for("a") is model
    # A member without its own model prices at the deployment's, which
    # is uniform when the deployment names none.
    assert group.cost_model_for("b") is UNIFORM_PRICE
    deployment = BatchedCostModel(setup=7.0)
    assert group.cost_model_for("a", deployment) is model
    assert group.cost_model_for("b", deployment) is deployment


# ----------------------------------------------------------------------
# System wiring
# ----------------------------------------------------------------------
def test_system_add_cache_group_wiring():
    system = build_group_system(2)
    assert system.is_group("edge")
    assert not system.is_group("edge/0")
    assert system.group("edge").cache("edge/0") is system.cache("edge/0")
    with pytest.raises(TrappError):
        system.group("nope")
    with pytest.raises(TrappError):
        system.add_group("edge")  # duplicate group id
    with pytest.raises(TrappError):
        system.add_cache("edge")  # cache id may not shadow a group id
    with pytest.raises(TrappError):
        system.add_group("edge/0")  # group id may not shadow a cache id
    with pytest.raises(TrappError):
        system.add_cache("solo", cost_model=BatchedCostModel())  # needs a group


def test_system_add_cache_auto_creates_group():
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_cache("c1", shards={"t": "s"}, group="tier")
    assert system.is_group("tier")
    assert system.group("tier").cache_ids() == ["c1"]


def test_system_adopts_group_instance():
    """Passing a CacheGroup object registers it: id routing resolves it,
    and a later add_cache(group="<same id>") joins it instead of minting
    a second group under the same name."""
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    group = CacheGroup("edge")
    system.add_cache("c0", shards={"t": "s"}, group=group)
    assert system.is_group("edge")
    assert system.group("edge") is group
    system.add_cache("c1", shards={"t": "s"}, group="edge")
    assert group.cache_ids() == ["c0", "c1"]
    with pytest.raises(TrappError):
        system.add_cache("c2", group=CacheGroup("edge"))  # a different "edge"


def test_failed_group_enrollment_releases_cache_id():
    """A group-id collision must not leave a half-registered cache
    squatting on the id: the corrected retry succeeds."""
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_cache("c1")
    with pytest.raises(TrappError):
        system.add_cache("c2", group=CacheGroup("c1"))  # id collides
    cache = system.add_cache("c2", shards={"t": "s"}, group="g")  # retry works
    assert cache.cache_id == "c2"
    assert system.group("g").cache_ids() == ["c2"]


def test_leader_selection_prices_unmodeled_replicas_at_the_default():
    """A replica without its own cost model is ranked at the deployment's
    price, which is the uniform price when the deployment names none."""
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_group("edge")
    system.add_cache("edge/0", shards={"t": "s"}, group="edge")  # no model
    own = BatchedCostModel(setup=2.0, marginal=1.5)
    system.add_cache("edge/1", shards={"t": "s"}, group="edge", cost_model=own)
    group = system.group("edge")
    # No deployment price: edge/0 prices 3 tuples uniformly, 3.0 < 6.5.
    leader, model = group.leader_for_source("t", "s", 3)
    assert leader.cache_id == "edge/0"
    assert model is UNIFORM_PRICE
    # A dearer deployment price hands the batch to the priced replica.
    deployment = BatchedCostModel(setup=5.0, marginal=1.0)
    leader, model = group.leader_for_source("t", "s", 3, deployment)
    assert leader.cache_id == "edge/1"
    assert model is own
    # The group's effective price is the per-source minimum of both.
    assert group.pricing_model() == cheapest([UNIFORM_PRICE, own])
    assert group.pricing_model(deployment) == cheapest([deployment, own])


def test_fanout_scoped_to_group_members():
    """A standalone cache sharing the source is not pushed to: its bounds
    and width-policy state stay untouched by the group's refreshes."""
    system = build_group_system(2)
    outsider = system.add_cache("ops", shards={"t": "s"})
    system.clock.advance(16.0)
    for cache in (*system.group("edge"), outsider):
        cache.sync_bounds()
    requester = system.cache("edge/0")
    requester.refresh_batched(requester.table("t"), [1])
    assert system.cache("edge/1").fanout_refreshes_received == 1
    assert outsider.fanout_refreshes_received == 0
    assert not outsider.table("t").row(1)["x"].is_exact


def test_two_groups_cannot_share_a_fanout_source():
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_cache("a", shards={"t": "s"}, group="tier1")
    with pytest.raises(ReplicationProtocolError):
        system.add_cache("b", shards={"t": "s"}, group="tier2")
    # The rejection left nothing behind: no half-subscribed cache, no
    # auto-created group squatting on the id, and the source still fans
    # out to tier1 only.
    with pytest.raises(TrappError):
        system.cache("b")
    assert not system.is_group("tier2")
    assert system.source("s").refresh_fanout is system.group("tier1")


def test_group_rejects_divergent_table_sources():
    """Two replicas serving one table name from different sources would
    make cross-cache merging refresh the wrong masters — rejected before
    any state changes."""
    system = TrappSystem()
    system.add_source("net1").add_table(make_master())
    system.add_source("net2").add_table(make_master())
    system.add_cache("a", shards={"t": "net1"}, group="g")
    with pytest.raises(ReplicationProtocolError):
        system.add_cache("b", shards={"t": "net2"}, group="g")
    assert system.group("g").caches_of_table("t") == [system.cache("a")]
    # A replica of the *same* sources is welcome.
    system.add_cache("c", shards={"t": "net1"}, group="g")
    assert system.group("g").cache_ids() == ["a", "c"]


def test_group_rejects_divergent_sources_on_enrollment():
    """The same invariant holds on the add_replica absorption path."""
    source1 = DataSource("net1")
    source1.add_table(make_master())
    source2 = DataSource("net2")
    source2.add_table(make_master())
    group = CacheGroup("g")
    first = DataCache("a")
    first.subscribe_table(source1, "t")
    group.add_replica(first)
    late = DataCache("b")
    late.subscribe_table(source2, "t")
    with pytest.raises(ReplicationProtocolError):
        group.add_replica(late)
    assert late.group is None  # rejected cleanly, cache untouched
    assert "b" not in group


def _empty_master(name: str = "t") -> Table:
    return Table(name, Schema.of(x="bounded"))


def test_group_rejects_empty_replica_of_other_source_on_enrollment():
    """A cache holding an *empty* ``t`` from ``s2`` subscribed from
    ``s2``: it is not a replica of a group serving ``t`` from ``s1``,
    however few tuples it holds, and the refusal moves nothing."""
    source1 = DataSource("s1")
    source1.add_table(make_master())
    source2 = DataSource("s2")
    source2.add_table(_empty_master())
    group = CacheGroup("g")
    first = DataCache("a")
    first.subscribe_table(source1, "t")
    group.add_replica(first)
    empty = DataCache("b")
    empty.subscribe_table(source2, "t")
    assert len(empty.table("t")) == 0
    with pytest.raises(ReplicationProtocolError):
        group.add_replica(empty)
    assert empty.group is None and "b" not in group
    assert source2.refresh_fanout is None
    assert group.caches_of_table("t") == [first]
    assert empty.source_ids_of_table("t") == frozenset({"s2"})
    # Tuples arriving at s2 later stay with the standalone cache.
    for value in (1.0, 2.0, 3.0, 4.0):
        source2.insert_row("t", {"x": value})
    assert len(empty.table("t")) == 4
    assert empty.sources_of_table(empty.table("t")) == ["s2"]


def test_group_rejects_empty_shard_set_replica_on_enrollment():
    """The same for shard sets: a cache whose shards own no tuple is
    refused by a group replicating ``t`` from a full shard set — whether
    it subscribed another source's empty shards or the one empty shard
    of the group's own striped source — and nothing moves."""
    system = TrappSystem()
    system.add_source("net", shards=2).add_table(make_master(1))  # tid 1: net/1
    system.add_source("other", shards=2).add_table(_empty_master())
    full = system.add_cache("full", shards={"t": "net"}, group="g")
    group = system.group("g")
    striped = DataCache("striped")
    striped.subscribe_table(system.source("other"), "t")
    lone = DataCache("lone")
    lone.subscribe_table(system.source("net/0"), "t")
    for empty in (striped, lone):
        assert len(empty.table("t")) == 0
        with pytest.raises(ReplicationProtocolError):
            group.add_replica(empty)
        assert empty.group is None
    assert striped.source_ids_of_table("t") == frozenset({"other/0", "other/1"})
    assert lone.source_ids_of_table("t") == frozenset({"net/0"})
    assert group.cache_ids() == ["full"]
    assert group.caches_of_table("t") == [full]
    for shard in system.source("other"):
        assert shard.refresh_fanout is None
    assert full.sources_of_table(full.table("t")) == ["net/0", "net/1"]


def test_group_rejects_single_shard_replica_of_striped_table():
    """A member subscribing one *shard* of a striped table is not a
    replica — it would answer group queries over a fraction of the
    tuples.  Declared source sets must match exactly."""
    system = TrappSystem()
    system.add_source("net", shards=3).add_table(make_master(6))
    system.add_cache("full", shards={"t": "net"}, group="g")
    with pytest.raises(ReplicationProtocolError):
        system.add_cache("partial", shards={"t": "net/0"}, group="g")
    assert system.group("g").cache_ids() == ["full"]
    # Another full replica of the same striped source is welcome.
    system.add_cache("full2", shards={"t": "net"}, group="g")
    assert system.group("g").cache_ids() == ["full", "full2"]


def test_partial_shard_replica_rejected_on_absorption_too():
    """A cache that subscribed one *shard* of a striped table directly
    cannot sneak into the group via add_replica absorption (its
    subscription-derived set is a subset, but its layout is 1:1)."""
    system = TrappSystem()
    sharded = system.add_source("net", shards=2)
    sharded.add_table(make_master(6))
    system.add_cache("full", shards={"t": "net"}, group="g")
    partial = DataCache("partial")
    partial.subscribe_table(system.source("net/0"), "t")
    with pytest.raises(ReplicationProtocolError):
        system.group("g").add_replica(partial)
    assert partial.group is None
    # Reverse enrollment order is rejected symmetrically.
    system2 = TrappSystem()
    sharded2 = system2.add_source("net", shards=2)
    sharded2.add_table(make_master(6))
    group2 = system2.add_group("g")
    partial2 = DataCache("partial")
    partial2.subscribe_table(system2.source("net/0"), "t")
    group2.add_replica(partial2)
    with pytest.raises(ReplicationProtocolError):
        system2.add_cache("full", shards={"t": "net"}, group="g")
    assert group2.cache_ids() == ["partial"]


def test_failed_add_cache_releases_auto_created_group():
    """A group minted by a failing add_cache call must not squat on the
    shared id namespace."""
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    with pytest.raises(TrappError):
        # The source serves 't', not 'absent' — subscription pre-fails.
        system.add_cache("c", shards={"absent": "s"}, group="fresh")
    assert not system.is_group("fresh")
    group = system.add_group("fresh", fanout=False)  # id reusable
    assert len(group) == 0


def test_cache_id_may_not_shadow_its_own_group():
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    with pytest.raises(TrappError):
        system.add_cache("edge", shards={"t": "s"}, group="edge")
    with pytest.raises(TrappError):
        system.cache("edge")  # nothing half-registered under the name


def test_piggybacked_refreshes_fan_out_in_lockstep():
    """§8.3 piggyback payloads reach siblings too — replicas keep
    bit-identical bound state even with piggybacking enabled."""
    from examples.section8.prerefresh import Piggyback, PiggybackPolicy
    from repro.replication.messages import ObjectKey

    system = TrappSystem()
    source = system.add_source("s")
    source.add_table(make_master())
    piggyback = Piggyback(PiggybackPolicy(risk_threshold=0.0, max_extra=8))
    piggyback.install(source)
    system.add_group("edge")
    for index in range(2):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    system.clock.advance(16.0)
    a, b = system.group("edge")
    a.sync_bounds()
    b.sync_bounds()
    a.refresh_batched(a.table("t"), [1])
    assert piggyback.refreshes > 0
    for tid in (1, 2, 3, 4):
        key = ObjectKey("t", tid, "x")
        assert a.bound_function_of(key).encode() == b.bound_function_of(key).encode()
    table_a, table_b = a.table("t"), b.table("t")
    for tid in (1, 2, 3, 4):
        assert table_a.row(tid)["x"] == table_b.row(tid)["x"]


# ----------------------------------------------------------------------
# Fan-out pushes
# ----------------------------------------------------------------------
def test_refresh_fans_out_to_siblings():
    system = build_group_system(3)
    system.clock.advance(16.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    requester = system.cache("edge/0")
    sibling = system.cache("edge/1")
    table = requester.table("t")
    assert table.row(1)["x"].width > 0
    assert sibling.table("t").row(1)["x"].width > 0

    requester.refresh_batched(table, [1, 2])

    source = system.source("s")
    assert source.fanout_refreshes == 2 * 2  # 2 keys x 2 siblings
    for cache in (sibling, system.cache("edge/2")):
        assert cache.fanout_refreshes_received == 2
        assert cache.table("t").row(1).is_exact("x")
        assert cache.table("t").row(2).is_exact("x")
        # Unrequested tuples stay untouched.
        assert not cache.table("t").row(3).is_exact("x")
    # One physical request paid for the whole group.
    assert requester.refresh_requests_sent == 1
    assert sibling.refresh_requests_sent == 0


def test_fanout_off_keeps_replicas_independent():
    system = build_group_system(2, fanout=False)
    system.clock.advance(16.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    requester = system.cache("edge/0")
    sibling = system.cache("edge/1")
    requester.refresh_batched(requester.table("t"), [1])
    assert system.source("s").refresh_fanout is None
    assert sibling.fanout_refreshes_received == 0
    assert not sibling.table("t").row(1)["x"].is_exact


def test_fanout_keeps_policies_in_lockstep():
    """After a fan-out push, a sibling's next refresh installs the same
    width the requester's would — the policies advanced identically."""
    system = build_group_system(2)
    system.clock.advance(4.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    a, b = system.cache("edge/0"), system.cache("edge/1")
    a.refresh_batched(a.table("t"), [1])
    from repro.replication.messages import ObjectKey

    key = ObjectKey("t", 1, "x")
    assert a.bound_function_of(key).width_parameter == (
        b.bound_function_of(key).width_parameter
    )


# ----------------------------------------------------------------------
# Leader selection
# ----------------------------------------------------------------------
def test_leader_for_source_picks_cheapest_model():
    system = TrappSystem()
    system.add_source("s", shards=2).add_table(make_master())
    system.add_group("edge")
    near = BatchedCostModel(setup=1.0, marginal=1.0)
    far = BatchedCostModel(setup=9.0, marginal=1.0)
    system.add_cache("edge/0", shards={"t": "s"}, group="edge", cost_model=far)
    system.add_cache("edge/1", shards={"t": "s"}, group="edge", cost_model=near)
    group = system.group("edge")
    leader, model = group.leader_for_source("t", "s/0", 3)
    assert leader.cache_id == "edge/1"
    assert model is near
    # Per-source overrides steer per shard, not per deployment.
    mixed = BatchedCostModel(setup=5.0, setup_by_source={"s/1": 0.5})
    group._cost_models["edge/0"] = mixed
    leader, model = group.leader_for_source("t", "s/1", 3)
    assert leader.cache_id == "edge/0"
    assert model is mixed


def test_leader_for_source_tie_breaks_deterministically():
    group = CacheGroup("g")
    source = DataSource("s")
    source.add_table(make_master())
    for cache_id in ("b", "a"):
        cache = DataCache(cache_id)
        cache.subscribe_table(source, "t")
        # subscribe first so the group registry absorbs the table
        group.add_replica(cache)
    leader, model = group.leader_for_source("t", "s", 1)
    assert leader.cache_id == "a"
    assert model is UNIFORM_PRICE
    with pytest.raises(ReplicationProtocolError):
        group.leader_for_source("absent", "s", 1)
