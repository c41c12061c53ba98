"""Integration tests for the source/cache replication protocol (§3)."""

import builtins
import random

import numpy as np
import pytest

from repro.bounds.functions import BoundFunction
from repro.bounds.width import FixedWidthPolicy
from repro.core.bound import Bound
from repro.errors import (
    ReplicationProtocolError,
    SchemaError,
    TrappError,
    UnknownColumnError,
)
from repro.replication.messages import ObjectKey, RefreshReason
from repro.replication.sharding import ShardedSource
from repro.replication.source import DataSource
from repro.replication.cache import DataCache
from repro.replication.system import TrappSystem
from repro.simulation.clock import Clock
from repro.storage.columnar import ColumnStore
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.telemetry import MetricsRegistry, register_system_collectors
from repro.workloads.netmon import (
    build_master_table,
    generate_topology,
    paper_master_table,
)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def source(clock):
    s = DataSource("s1", clock=clock.now)
    s.add_table(paper_master_table())
    return s


@pytest.fixture
def cache(clock, source):
    c = DataCache("c1", clock=clock.now)
    c.subscribe_table(source, "links")
    return c


class TestSubscription:
    def test_cached_table_mirrors_master(self, source, cache):
        cached = cache.table("links")
        master = source.table("links")
        assert len(cached) == len(master)
        assert cached.tids() == master.tids()

    def test_initial_bounds_are_exact(self, cache):
        # At subscription time (t=0) bound functions have zero width.
        for row in cache.table("links"):
            assert row.bound("latency").is_exact

    def test_exact_columns_copied_verbatim(self, source, cache):
        for tid in source.table("links").tids():
            assert cache.table("links").row(tid)["cost"] == (
                source.table("links").row(tid)["cost"]
            )

    def test_double_subscription_rejected(self, source, cache):
        with pytest.raises(ReplicationProtocolError):
            cache.subscribe_table(source, "links")

    def test_monitor_tracks_every_bounded_object(self, source, cache):
        # 6 tuples * 3 bounded columns.
        assert source.monitor.tracked_count() == 18


class TestBoundWidening:
    def test_bounds_widen_with_time(self, clock, cache):
        clock.advance(4.0)
        cache.sync_bounds()
        row = cache.table("links").row(1)
        bound = row.bound("latency")
        assert bound.width > 0
        assert bound.contains(3.0)  # the master value


class TestQueryInitiatedRefresh:
    def test_refresh_collapses_bounds(self, clock, source, cache):
        clock.advance(10.0)
        cache.sync_bounds()
        assert cache.table("links").row(1).bound("latency").width > 0
        cache.refresh(cache.table("links"), [1])
        bound = cache.table("links").row(1).bound("latency")
        assert bound.is_exact
        assert bound.lo == 3.0
        assert source.query_initiated_refreshes > 0

    def test_refresh_unsubscribed_tuple_rejected(self, cache):
        fake = Table("links", cache.table("links").schema)
        fake.insert(cache.table("links").row(1).as_dict(), tid=999)
        with pytest.raises(ReplicationProtocolError):
            cache.refresh(fake, [999])

    def test_refresh_counts(self, clock, source, cache):
        clock.advance(5.0)
        cache.refresh(cache.table("links"), [1, 2])
        assert cache.refresh_requests_sent == 1  # one batch to one source
        assert cache.refreshes_received == 6  # 2 tuples * 3 columns


class TestValueInitiatedRefresh:
    def test_update_outside_bound_triggers_refresh(self, clock, source, cache):
        key = ObjectKey("links", 1, "latency")
        # At t=0 bounds are exact, so any change escapes them.
        refreshes = source.apply_update(key, 50.0)
        assert len(refreshes) == 1
        assert refreshes[0].reason is RefreshReason.VALUE_INITIATED
        cache.sync_bounds()
        assert cache.table("links").row(1).bound("latency").contains(50.0)

    def test_update_inside_bound_is_silent(self, clock, source, cache):
        key = ObjectKey("links", 1, "latency")
        # Refresh with a wide fixed policy, then nudge within the bound.
        source.monitor.track(
            "c1",
            key,
            source.register("c1b", key, policy=FixedWidthPolicy(100.0)).bound_function,
            FixedWidthPolicy(100.0),
        )
        clock.advance(1.0)
        before = source.value_initiated_refreshes
        source.apply_update(key, 3.1)
        # The c1 entry was replaced by a wide bound: no refresh for it.
        assert source.value_initiated_refreshes <= before + 1

    def test_trapp_contract_master_always_in_bound(self, clock, source, cache):
        """After any update, every cache bound contains the master value."""
        import random

        rng = random.Random(55)
        key = ObjectKey("links", 2, "traffic")
        for _ in range(30):
            clock.advance(rng.uniform(0.1, 2.0))
            new_value = rng.uniform(0, 300)
            source.apply_update(key, new_value)
            cache.sync_bounds()
            assert cache.table("links").row(2).bound("traffic").contains(new_value)


class TestCardinalityChanges:
    def test_insert_propagates_immediately(self, source, cache):
        row = {
            "from_node": 6, "to_node": 1, "latency": 4.0,
            "bandwidth": 55.0, "traffic": 100.0, "cost": 5.0,
        }
        change = source.insert_row("links", row)
        assert change.is_insert
        assert change.tid in cache.table("links")
        assert len(cache.table("links")) == 7

    def test_delete_propagates_immediately(self, source, cache):
        source.delete_row("links", 1)
        assert 1 not in cache.table("links")
        assert len(cache.table("links")) == 5

    def test_count_query_stays_exact_after_churn(self, source, cache):
        from repro.core.aggregates import COUNT

        source.insert_row(
            "links",
            {
                "from_node": 6, "to_node": 1, "latency": 4.0,
                "bandwidth": 55.0, "traffic": 100.0, "cost": 5.0,
            },
        )
        source.delete_row("links", 2)
        bound = COUNT.bound_without_predicate(cache.table("links").columns, None)
        assert bound == Bound.exact(6)


class TestMultiCacheFanout:
    def test_two_caches_track_independently(self, clock, source):
        c1 = DataCache("m1", clock=clock.now)
        c1.subscribe_table(source, "links")
        c2 = DataCache("m2", clock=clock.now)
        c2.subscribe_table(source, "links")
        key = ObjectKey("links", 3, "bandwidth")
        refreshes = source.apply_update(key, 500.0)
        # Both caches held zero-width bounds: both get value refreshes.
        assert len(refreshes) == 2
        for c in (c1, c2):
            c.sync_bounds()
            assert c.table("links").row(3).bound("bandwidth").contains(500.0)


def _replicas(clock, source, count):
    caches = []
    for index in range(count):
        replica = DataCache(f"r{index}", clock=clock.now)
        replica.subscribe_table(source, "links")
        caches.append(replica)
    return caches


def _boom(*args, **kwargs):
    raise AssertionError("not on the no-violation path")


class TestTriggerCheck:
    """The source's per-update check: the per-object safe window."""

    KEY = ObjectKey("links", 1, "latency")

    def test_in_window_updates_touch_no_tracker(self, clock, source, monkeypatch):
        """K = 4 caches, 1 000 updates inside every bound: no ``Bound``,
        no ``BoundFunction.at``, no ``sorted`` — one window probe each."""
        caches = _replicas(clock, source, 4)
        clock.advance(100.0)
        master = source.table("links").row(1).number("latency")
        assert source.apply_update(self.KEY, master) == []  # the full check
        for replica in caches:
            replica.sync_bounds()
        reach = min(
            replica.table("links").row(1).bound("latency").hi - master
            for replica in caches
        )
        assert reach > 0
        monitor = source.monitor
        answered, evaluated = monitor.window_answers, monitor.full_checks
        with monkeypatch.context() as patched:
            patched.setattr(Bound, "__init__", _boom)
            patched.setattr(BoundFunction, "at", _boom)
            patched.setattr(builtins, "sorted", _boom)
            for step in range(1000):
                value = master + reach * ((step % 21) - 10) / 10.0
                assert source.apply_update(self.KEY, value) == []
        assert monitor.window_answers == answered + 1000
        assert monitor.full_checks == evaluated
        assert source.table("links").row(1).number("latency") == value
        for replica in caches:
            replica.sync_bounds()
            assert replica.table("links").row(1).bound("latency").contains(value)

    def test_a_refresh_drops_the_window_and_the_next_check_rebuilds_it(
        self, clock, source
    ):
        first, second = _replicas(clock, source, 2)
        monitor = source.monitor
        clock.advance(100.0)
        master = source.table("links").row(1).number("latency")
        source.apply_update(self.KEY, master)
        source.apply_update(self.KEY, master)
        assert (monitor.window_answers, monitor.full_checks) == (1, 1)

        first.refresh(first.table("links"), [1])  # query-initiated, one replica
        # ``first`` now holds [master, master]: the old window would hide
        # an escape from it, so the next update is checked in full ...
        assert source.apply_update(self.KEY, master) == []
        assert (monitor.window_answers, monitor.full_checks) == (1, 2)
        # ... and leaves the zero-width window that check found.
        assert source.apply_update(self.KEY, master) == []
        assert (monitor.window_answers, monitor.full_checks) == (2, 2)
        [refresh] = source.apply_update(self.KEY, master + 1e-3)
        assert refresh.reason is RefreshReason.VALUE_INITIATED
        assert (monitor.window_answers, monitor.full_checks) == (2, 3)
        assert first.refreshes_received > second.refreshes_received

        # Each later full check ratchets the window outward.
        clock.advance(50.0)
        assert source.apply_update(self.KEY, master + 2e-3) == []
        assert source.apply_update(self.KEY, master) == []
        assert (monitor.window_answers, monitor.full_checks) == (3, 4)

    def test_violators_come_in_cache_id_order_whatever_the_subscription_order(
        self, clock, source
    ):
        for cache_id in ("m/2", "m/10", "m/1"):
            DataCache(cache_id, clock=clock.now).subscribe_table(source, "links")
        assert source.monitor.caches_tracking(self.KEY) == ["m/1", "m/10", "m/2"]
        refreshes = source.apply_update(self.KEY, 77.0)  # zero-width bounds
        assert len(refreshes) == 3
        assert [cache_id for cache_id, _ in source.monitor.trackers(self.KEY).items()] == [
            "m/1", "m/10", "m/2"
        ]

    def test_monitor_checks_are_pulled_into_a_gauge(self):
        system = TrappSystem()
        source = system.add_source("s1")
        source.add_table(paper_master_table())
        system.add_cache("c1").subscribe_table(source, "links")
        registry = MetricsRegistry()
        register_system_collectors(registry, system)
        system.clock.advance(100.0)
        master = source.table("links").row(1).number("latency")
        for _ in range(3):
            source.apply_update(self.KEY, master)
        [family] = [
            entry
            for entry in registry.snapshot()["families"]
            if entry["name"] == "trapp_monitor_checks"
        ]
        assert {
            (sample["labels"]["source"], sample["labels"]["outcome"]): sample["value"]
            for sample in family["samples"]
        } == {("s1", "window"): 2, ("s1", "evaluated"): 1}


class TestRejectedUpdates:
    """A value that is not a finite number changes nothing."""

    KEY = ObjectKey("links", 1, "latency")

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"), float("inf"), float("-inf"), "abc", None, [1.0],
            pytest.param(10**400, id="huge_int"),
        ],
    )
    @pytest.mark.parametrize("sharded", [False, True])
    def test_nothing_is_mutated(self, clock, bad, sharded):
        if sharded:
            source = ShardedSource.create("s", 2, clock=clock.now)
            source.add_table(paper_master_table())
        else:
            source = DataSource("s", clock=clock.now)
            source.add_table(paper_master_table())
        cache = DataCache("c1", clock=clock.now)
        cache.subscribe_table(source, "links")
        clock.advance(9.0)
        cache.sync_bounds()
        shard = source.shard_for("links", 1) if sharded else source
        entry = shard.monitor.entry("c1", self.KEY)
        function, tracked = entry.bound_function, shard.monitor.tracked_count()
        master = shard.table("links").row(1).number("latency")
        cached = cache.table("links").row(1).bound("latency")

        with pytest.raises(SchemaError):
            source.apply_update(self.KEY, bad)

        assert shard.table("links").row(1).number("latency") == master
        assert shard.monitor.entry("c1", self.KEY) is entry
        assert entry.bound_function is function
        assert shard.monitor.tracked_count() == tracked
        assert shard.value_initiated_refreshes == 0
        cache.sync_bounds()  # used to raise forever after a NaN update
        assert cache.table("links").row(1).bound("latency") == cached
        assert source.apply_update(self.KEY, master + 0.01) == []

    def test_a_numeric_string_is_coerced_once(self, clock, source, cache):
        clock.advance(9.0)
        [refresh] = source.apply_update(self.KEY, "500")
        assert refresh.payloads[0].value == 500.0
        assert refresh.payloads[0].bound_function.value_at_refresh == 500.0
        assert source.table("links").row(1)["latency"] == 500.0

    @pytest.mark.parametrize("column", ["latency", "cost"])
    def test_a_nan_row_is_rejected_before_it_is_inserted_or_broadcast(
        self, clock, source, cache, column
    ):
        """``insert_row`` used to put the NaN into the master, the store
        and every subscribing cache; each later sync then raised."""
        master = source.table("links")
        values = master.row(1).as_dict() | {column: float("nan")}
        before = (
            master.tids(), master.columns.version, master.columns.layout_version,
            source.monitor.tracked_count(), cache.table("links").tids(),
            cache.table("links").columns.version, len(cache._subscriptions),
        )
        with pytest.raises(SchemaError, match="NaN"):
            source.insert_row("links", values)
        assert before == (
            master.tids(), master.columns.version, master.columns.layout_version,
            source.monitor.tracked_count(), cache.table("links").tids(),
            cache.table("links").columns.version, len(cache._subscriptions),
        )
        clock.advance(9.0)
        cache.sync_bounds()
        change = source.insert_row("links", master.row(1).as_dict())
        assert change.tid in cache.table("links")  # the tid was not burnt


class TestDeliveryWritesArrays:
    """Refreshes land as array writes: no ``Bound``, no ``BoundFunction.at``,
    no ``ColumnStore.set`` on a cached store, no ``Table.update_value`` on a
    cached table and no ``Column.validate`` beyond the master's own."""

    N_LINKS = 320

    @pytest.fixture
    def deployment(self, clock):
        rng = random.Random(5)
        source = DataSource("net", clock=clock.now)
        source.add_table(
            build_master_table(generate_topology(100, self.N_LINKS, rng), rng)
        )
        source.refresh_fanout = True
        return source, _replicas(clock, source, 2)

    @pytest.fixture
    def guarded(self, monkeypatch, deployment):
        """Patch the per-cell pipeline out from under the two caches."""
        _, caches = deployment
        cached_stores = {id(replica.table("links").columns) for replica in caches}
        store_set = ColumnStore.set
        validated = []

        def set_master_cells_only(store, tid, column, value):
            assert id(store) not in cached_stores, "ColumnStore.set on a cached store"
            store_set(store, tid, column, value)

        column_validate = Column.validate

        def counting_validate(column, value):
            validated.append(column.name)
            column_validate(column, value)

        monkeypatch.setattr(Bound, "__init__", _boom)
        monkeypatch.setattr(BoundFunction, "at", _boom)
        monkeypatch.setattr(ColumnStore, "set", set_master_cells_only)
        monkeypatch.setattr(Column, "validate", counting_validate)
        for replica in caches:
            monkeypatch.setattr(replica.table("links"), "update_value", _boom)
        return validated

    @staticmethod
    def _assert_cells_equal_master(source, caches, tids, columns):
        master = source.table("links").columns
        for replica in caches:
            store = replica.table("links").columns
            for tid in tids:
                for column in columns:
                    value = master.cell(tid, column)
                    assert value[0] == value[1]
                    assert store.cell(tid, column) == value, (replica.cache_id, tid)

    def test_a_thousand_violating_updates_against_two_replicas(
        self, clock, deployment, guarded
    ):
        source, caches = deployment
        clock.advance(25.0)  # the clock then stands: fresh bounds are points
        tids = source.table("links").tids()
        for step in range(1000):
            key = ObjectKey("links", tids[step % 40], "traffic")
            refreshes = source.apply_update(key, 1e4 + step * 0.5)
            assert [r.reason for r in refreshes] == [RefreshReason.VALUE_INITIATED] * 2
        assert guarded == ["traffic"] * 1000  # the master's validation, only
        self._assert_cells_equal_master(source, caches, tids[:40], ["traffic"])
        for replica in caches:
            assert replica.refreshes_received == 1000
            assert (replica.cell_route_messages, replica.column_route_messages) == (
                1000, 0,
            )
            assert replica.table("links").columns.non_exact_count("traffic") == 0

    def test_a_three_hundred_tuple_batch_and_its_fanout(
        self, clock, deployment, guarded
    ):
        source, caches = deployment
        clock.advance(25.0)
        for replica in caches:
            replica.sync_bounds()
            assert replica.table("links").columns.non_exact_count("latency") == (
                self.N_LINKS
            )
        requester, sibling = caches
        tids = source.table("links").tids()[10:310]
        receipt = requester.refresh_batched(requester.table("links"), tids)
        assert receipt.tids == frozenset(tids) and not receipt.failures
        assert guarded == []
        bounded = ["latency", "bandwidth", "traffic"]
        self._assert_cells_equal_master(source, caches, tids, bounded)
        for replica in caches:
            assert replica.refreshes_received == 900
            assert (replica.cell_route_messages, replica.column_route_messages) == (
                0, 1,
            )
            store = replica.table("links").columns
            assert store.non_exact_count("latency") == self.N_LINKS - 300
        assert sibling.fanout_refreshes_received == 900

    def test_a_large_message_makes_as_many_numpy_calls_as_a_small_one(
        self, clock, deployment, monkeypatch
    ):
        """Above the route constant the array work does not grow with the
        message: counted on the two NumPy entry points the route calls by
        name and on the store's bulk write."""
        source, (requester, _) = deployment
        source.refresh_fanout = False
        table = requester.table("links")
        tids = table.tids()
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "fromiter", counted("fromiter", np.fromiter))
        monkeypatch.setattr(np, "flatnonzero", counted("flatnonzero", np.flatnonzero))
        monkeypatch.setattr(
            ColumnStore, "write_bounds",
            counted("write_bounds", ColumnStore.write_bounds),
        )
        monkeypatch.setattr(
            ColumnStore, "write_cell", counted("write_cell", ColumnStore.write_cell)
        )
        counts = []
        for batch in (tids[:40], tids[40:340]):
            clock.advance(25.0)
            requester.sync_bounds()
            calls.clear()
            requester.refresh_batched(table, batch)
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert counts[0].count("write_bounds") == 3 and "write_cell" not in counts[0]

    def test_routes_are_tallied_and_only_the_column_route_is_timed(self):
        system = TrappSystem()
        source = system.add_source("s1")
        rng = random.Random(5)
        source.add_table(build_master_table(generate_topology(30, 60, rng), rng))
        cache = system.add_cache("c1")
        cache.subscribe_table(source, "links")
        registry = MetricsRegistry()
        register_system_collectors(registry, system)
        cache.attach_telemetry(registry)
        system.clock.advance(25.0)
        for step in range(5):  # five one-payload pushes
            assert source.apply_update(ObjectKey("links", 1, "traffic"), 1e4 + step)
        table = cache.table("links")
        cache.refresh_batched(table, table.tids()[:2])  # 6 payloads
        cache.refresh_batched(table, table.tids()[:40])  # 120 payloads
        [family] = [
            entry
            for entry in registry.snapshot()["families"]
            if entry["name"] == "trapp_cache_messages"
        ]
        kinds = {
            sample["labels"]["kind"]: sample["value"] for sample in family["samples"]
        }
        assert (kinds["cell_route"], kinds["column_route"]) == (6, 1)
        assert kinds["refreshes_received"] == 5 + 6 + 120
        assert cache._t_apply_seconds.count == 1  # never on the cell route


class TestMasterValueReads:
    """A query-initiated refresh reads each master value once, from the
    master's ``ColumnStore``, whatever the fan-out."""

    def test_one_read_per_requested_key(self, clock, source, monkeypatch):
        source.refresh_fanout = True
        requester, *_ = _replicas(clock, source, 3)
        clock.advance(9.0)
        reads = []
        master_value = DataSource._master_value

        def counting(self, key):
            reads.append(key)
            return master_value(self, key)

        monkeypatch.setattr(DataSource, "_master_value", counting)
        monkeypatch.setattr(Table, "row", _boom)  # not through the rows
        requester.refresh_batched(requester.table("links"), [1, 2, 3, 4])
        assert len(reads) == len(set(reads)) == 4 * 3
        assert source.fanout_refreshes == 2 * 12

    def test_unserved_and_non_exact_objects_raise_as_before(self, source):
        with pytest.raises(ReplicationProtocolError):
            source._master_value(ObjectKey("ghosts", 1, "latency"))
        with pytest.raises(TrappError):
            source._master_value(ObjectKey("links", 99, "latency"))
        with pytest.raises(UnknownColumnError):
            source._master_value(ObjectKey("links", 1, "ghost"))
        source.table("links").update_value(1, "latency", Bound(1.0, 2.0))
        with pytest.raises(TypeError, match="non-exact"):
            source._master_value(ObjectKey("links", 1, "latency"))
        source.table("links").update_value(1, "latency", Bound(4.0, 4.0))
        assert source._master_value(ObjectKey("links", 1, "latency")) == 4.0
