"""Property: the one-check master write ≡ the layered route it replaced.

``ShardedSource.apply_update`` → ``DataSource.apply_update`` →
``Table.update_value`` → ``ColumnStore.set`` checks a write once: a
finite float into a bounded column is one shard probe, one table probe,
one slot lookup, two array stores and the window probe, and every other
value takes its checks in ``ColumnStore.set``.  The route before, four
layers each checking again, lives on in ``tests/oracle/layered_write.py``
(with the cell route a value-initiated push used to land through).

Two twin worlds — a plain source with one cache, a three-shard source
with two, and a loose table holding wide bounds, EXACT and TEXT cells,
every store with live width and endpoint orders — replay one schedule of
writes, clock steps, bound syncs and query-initiated refreshes (which
shrink bounds, so later writes violate and push).  Writes draw floats,
ints, bools, strings, NaN, ±inf, ints too large for float64 and
``Bound`` values into bounded, EXACT and TEXT columns, unknown columns,
unknown tuples and an unknown table (a write to an EXACT or TEXT column
of a source is refused).  After every op the twins must agree
on the outcome — the same exception type with nothing moved, or the same
returned refreshes — and on every array, object, exactness counter,
version, order dirty set, monitor window and tally, tracker, bound-
function array and cache counter.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.bound import Bound
from repro.errors import TrappError
from repro.replication.cache import DataCache
from repro.replication.messages import ObjectKey
from repro.replication.sharding import ShardedSource
from repro.replication.source import DataSource
from repro.simulation.clock import Clock
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.workloads.netmon import build_master_table, generate_topology
from tests.oracle.layered_write import layered_write

N_LINKS = 9
TIDS = list(range(1, N_LINKS + 1))
LINK_COLUMNS = ["latency", "bandwidth", "traffic", "from_node", "cost"]
LOOSE_COLUMNS = ["b", "e", "t"]


class World:
    """One twin: two sources, three caches and a loose table."""

    def __init__(self) -> None:
        self.clock = Clock()
        rng = random.Random(11)
        master = build_master_table(generate_topology(5, N_LINKS, rng), rng)
        self.plain = DataSource("plain", clock=self.clock.now)
        self.plain.add_table(master.copy())
        self.sharded = ShardedSource.create("sharded", 3, clock=self.clock.now)
        self.sharded.add_table(master)
        self.caches = [DataCache(name, clock=self.clock.now) for name in "abc"]
        self.caches[0].subscribe_table(self.plain, "links")
        for cache in self.caches[1:]:
            cache.subscribe_table(self.sharded, "links")
        self.loose = Table("loose", Schema.of(b="bounded", e="exact", t="text"))
        for tid in range(4):
            self.loose.insert({"b": Bound(tid, 2 * tid + 1), "e": tid, "t": f"{tid}"})
        self.step(4.0)

    def step(self, seconds: float) -> None:
        self.clock.advance(seconds)
        for cache in self.caches:
            cache.sync_bounds()
        for store in self.stores():
            for column in store.schema.bounded_columns:
                store.width_order(column.name)
                store.endpoint_order(column.name, "lo")
                store.endpoint_order(column.name, "hi")

    def sources(self) -> list[DataSource]:
        return [self.plain, *self.sharded.shards]

    def stores(self):
        tables = [source.table("links") for source in self.sources()]
        tables += [cache.table("links") for cache in self.caches]
        return [table.columns for table in tables + [self.loose]]

    def master(self, target: str, key: ObjectKey) -> float:
        if target == "plain":
            source = self.plain
        else:
            source = self.sharded.shard_for(key.table, key.tid)
        return source.table(key.table).columns.cell(key.tid, key.column)[0]


def _state(world: World) -> list:
    state = []
    for store in world.stores():
        n = len(store)
        state.append((
            store._tids[:n].tolist(),
            {c: (store._lo[c][:n].tobytes(), store._hi[c][:n].tobytes()) for c in store._lo},
            {
                c: [(type(v).__name__, v) for v in objects[:n].tolist()]
                for c, objects in store._objects.items()
            },
            [store.column_exact(name) for name in store.schema.column_names],
            dict(store._non_exact), store.version, store.layout_version,
            {
                key: (sorted(order.dirty), order.stale, order.epoch)
                for key, order in store._sorted_orders.items()
            },
        ))
    for source in world.sources():
        monitor = source.monitor
        state.append((
            monitor.window_answers, monitor.full_checks, dict(monitor._windows),
            monitor.violation_counts(), monitor.tracked_count(),
            source.value_initiated_refreshes, source.query_initiated_refreshes,
            {
                key: [
                    (cache_id, entry.value_at_refresh, entry.width_parameter,
                     entry.refreshed_at, entry.policy.next_width())
                    for cache_id, entry in trackers.items()
                ]
                for key, trackers in monitor._objects.items()
            },
        ))
    for cache in world.caches:
        state.append((
            cache.refreshes_received, cache.cell_route_messages,
            cache.column_route_messages, cache.fanout_refreshes_received,
            {
                key: [array.tobytes() for array in params.parameters()]
                for key, params in cache._bound_columns.items()
            },
        ))
    return state


values = st.one_of(
    st.tuples(st.just("near"), st.floats(-50.0, 50.0)),
    st.tuples(
        st.just("raw"),
        st.one_of(
            st.floats(),
            st.integers(-1000, 1000),
            st.sampled_from([10**400, -(10**400), 2**63, True, False]),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            st.text(alphabet="0123456789.e-x", max_size=4),
            st.builds(
                lambda lo, width: Bound(lo, lo + width),
                st.floats(-100.0, 100.0), st.floats(0.0, 10.0),
            ),
        ),
    ),
)

ops = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(["plain", "sharded"]),
        st.sampled_from(["links", "links", "links", "nodes"]),
        st.sampled_from(TIDS + [0, 99]),
        st.sampled_from(LINK_COLUMNS + ["nope"]),
        values,
    ),
    st.tuples(
        st.just("cell"),
        st.sampled_from([0, 1, 2, 3, 7]),
        st.sampled_from(LOOSE_COLUMNS + ["nope"]),
        values,
    ),
    st.tuples(st.just("step"), st.sampled_from([0.0, 0.25, 2.0])),
    st.tuples(
        st.just("refresh"),
        st.integers(0, 2),
        st.lists(st.sampled_from(TIDS), min_size=1, max_size=N_LINKS, unique=True),
    ),
)


def _run(world: World, op):
    kind = op[0]
    if kind == "step":
        world.step(op[1])
        return None
    if kind == "refresh":
        cache = world.caches[op[1]]
        cache.refresh_batched(cache.table("links"), op[2])
        return None
    value_kind, value = op[-1]
    if kind == "cell":
        tid, column = op[1], op[2]
        if value_kind == "near":
            value = 1.0 + value
        return world.loose.update_value(tid, column, value)
    _, target, table, tid, column, _ = op
    key = ObjectKey(table, tid, column)
    if value_kind == "near":
        try:
            value = world.master(target, key) + value
        except TrappError:  # no such cell: the write raises either way
            value = 1.0 + value
    source = world.plain if target == "plain" else world.sharded
    return source.apply_update(key, value)


def _outcome(world: World, op, reference: bool):
    before = _state(world)
    try:
        if reference:
            with layered_write():
                result = _run(world, op)
        else:
            result = _run(world, op)
    except Exception as error:
        # A write raises before anything moves: the monitor is checked
        # before the cell is written, and a column that is not bounded
        # is refused first.
        if op[0] in ("write", "cell"):
            assert _state(world) == before, f"{op} moved state before raising"
        return ("raised", type(error))
    return ("returned", result)


@settings(max_examples=80, deadline=None)
@given(schedule=st.lists(ops, min_size=1, max_size=30))
def test_the_one_check_route_matches_the_layered_route(schedule):
    subject, reference = World(), World()
    assert _state(subject) == _state(reference)
    for op in schedule:
        assert _outcome(subject, op, False) == _outcome(reference, op, True), op
        assert _state(subject) == _state(reference), op


def test_the_schedule_reaches_every_outcome():
    """The ops above do push, answer from the window and raise."""
    world = World()
    key = ObjectKey("links", 2, "traffic")
    value = world.master("sharded", key)
    assert world.sharded.apply_update(key, value) == []
    assert world.sharded.apply_update(key, value) == []
    monitor = world.sharded.shard_for("links", 2).monitor
    assert (monitor.window_answers, monitor.full_checks) == (1, 1)
    cache = world.caches[1]
    cache.refresh_batched(cache.table("links"), [2])
    world.step(0.25)
    refreshes = world.sharded.apply_update(key, value + 40.0)
    assert refreshes and {refresh.columns[0].tids for refresh in refreshes} == {(2,)}
    assert cache.table("links").columns.cell(2, "traffic") == (value + 40.0,) * 2
    assert _outcome(world, ("cell", 1, "t", ("raw", 1.5)), False)[0] == "raised"
