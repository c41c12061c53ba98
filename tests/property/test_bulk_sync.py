"""Property: the column-at-a-time bound sync ≡ the per-cell reference.

``DataCache.sync_bounds`` evaluates each cached column's bound functions
as one array sweep and lands them with one ``ColumnStore.write_bounds``;
rows are records built from the arrays.  The loop it replaced lives on in
``tests/oracle/percell_sync.py``.  Two twin deployments replay the same
schedule — clock advances, escaping master updates, query-initiated
refreshes, inserts, deletes, master migrations, snapshot admissions,
detaches, cached rows evicted under live subscriptions — one syncing in
bulk, the other cell by cell, and after every sync the twins must agree
**bit for bit**: column arrays, every row value, exactness counters, the
width and endpoint orderings, and any row-era sorted index.  The two
shards carry different bound shapes (the three built-in ones and a
custom one), so migrations mix kernels within one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bounds.functions import ConstantShape, LinearShape, SqrtShape
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.percell_sync import per_cell_sync

grid = st.integers(min_value=-256, max_value=256).map(lambda k: k / 32.0)

N_SHARDS = 2
MAX_MEMBERS = 4
BOUNDED = ("x", "y")


@dataclass(frozen=True, slots=True)
class CubeRootShape:
    """A shape the cache has no array kernel for."""

    name: str = "cbrt"

    def __call__(self, elapsed: float) -> float:
        return max(0.0, elapsed) ** (1.0 / 3.0)


SHAPES = (SqrtShape(), LinearShape(), ConstantShape(), CubeRootShape())


@st.composite
def master_tables(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    table = Table("t", Schema.of(x="bounded", y="bounded", g="exact"))
    for index in range(n):
        table.insert({"x": draw(grid), "y": draw(grid), "g": float(index % 3)})
    return table


@st.composite
def schedules(draw):
    """4–14 ops as plain tuples; indices reduce modulo the live state."""
    index = st.integers(min_value=0, max_value=11)
    op = st.one_of(
        st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0, 7.0))),
        st.tuples(st.just("write"), index, st.sampled_from(BOUNDED), grid),
        st.tuples(st.just("refresh"), index, st.lists(index, max_size=4)),
        st.tuples(st.just("insert"), grid, grid),
        st.tuples(st.just("delete"), index),
        st.tuples(st.just("migrate"), index, st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("admit")),
        st.tuples(st.just("detach"), index),
        st.tuples(st.just("evict"), index, index),
    )
    return draw(st.lists(op, min_size=4, max_size=14))


def _build(master: Table, shapes, age: float) -> TrappSystem:
    system = TrappSystem()
    source = system.add_source("s", shards=N_SHARDS)
    for shard, shape in zip(source.shards, shapes):
        shard.shape = shape
    source.add_table(master.copy())
    system.add_group("g")
    for index in range(2):
        system.add_cache(f"g/{index}", shards={"t": "s"}, group="g")
    system.clock.advance(age)
    for cache in system.group("g"):
        cache.sync_bounds()
    return system


def _order_contents(store, column):
    orders = [store.width_order(column)]
    orders += [store.endpoint_order(column, side) for side in ("lo", "hi")]
    return [(o.tids.tolist(), o.keys.tobytes()) for o in orders]


def _fresh_order_contents(store, column):
    fresh = [store._build_sorted_order(column, kind) for kind in ("width", "lo", "hi")]
    return [(o.tids.tolist(), o.keys.tobytes()) for o in fresh]


def _assert_twins_agree(bulk: TrappSystem, oracle: TrappSystem, context: str):
    members = sorted(bulk.group("g").cache_ids())
    assert members == sorted(oracle.group("g").cache_ids()), context
    for cache_id in members:
        ours, theirs = bulk.cache(cache_id), oracle.cache(cache_id)
        a, b = ours.table("t"), theirs.table("t")
        where = f"{cache_id} at {context}"
        assert a.tids() == b.tids(), where
        for column in BOUNDED:
            lo_a, hi_a = a.columns.endpoints(column)
            lo_b, hi_b = b.columns.endpoints(column)
            assert lo_a.tobytes() == lo_b.tobytes(), (where, column)
            assert hi_a.tobytes() == hi_b.tobytes(), (where, column)
            assert a.columns.non_exact_count(column) == b.columns.non_exact_count(
                column
            ), (where, column)
            contents = _order_contents(a.columns, column)
            assert contents == _order_contents(b.columns, column), (where, column)
            assert contents == _fresh_order_contents(a.columns, column), (
                where, column,
            )
        for row_a, row_b in zip(a.rows(), b.rows()):
            assert row_a == row_b, where
            for column in BOUNDED:
                assert type(row_a[column]) is type(row_b[column]), where
                # The lazy view shows exactly what the arrays hold.
                slot = a.columns._slot_of[row_a.tid]
                bound = row_a.bound(column)
                assert bound.lo == a.columns._lo[column][slot], where
                assert bound.hi == a.columns._hi[column][slot], where


def _assert_standing_clock_is_free(system: TrappSystem, context: str):
    """A second sync at the same instant must leave the store untouched."""
    for cache in system.group("g"):
        store = cache.table("t").columns
        orders = [store.width_order(c) for c in BOUNDED]
        orders += [store.endpoint_order(c, s) for c in BOUNDED for s in ("lo", "hi")]
        version = store.version
        cache.sync_bounds()
        assert store.version == version, context
        again = [store.width_order(c) for c in BOUNDED]
        again += [store.endpoint_order(c, s) for c in BOUNDED for s in ("lo", "hi")]
        assert all(x is y for x, y in zip(orders, again)), context


@settings(max_examples=120, deadline=None)
@given(
    master=master_tables(),
    shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
    schedule=schedules(),
    age=st.sampled_from((0.0, 3.0, 48.0)),
)
def test_bulk_sync_matches_per_cell_reference(master, shapes, schedule, age):
    bulk = _build(master, shapes, age)
    with per_cell_sync():
        oracle = _build(master, shapes, age)
    _assert_twins_agree(bulk, oracle, "start")
    admitted = 0
    evicted = False

    def on_both(action):
        action(bulk)
        with per_cell_sync():
            action(oracle)

    for step, op in enumerate(schedule):
        kind = op[0]
        context = f"step {step} {op} of {schedule}"
        live = bulk.source("s").partitions("t")
        tids = sorted(tid for _, part in live for tid in part.tids())
        members = sorted(bulk.group("g").cache_ids())
        if kind == "advance":
            on_both(lambda system: system.clock.advance(op[1]))
        elif kind == "write" and tids:
            key = ObjectKey("t", tids[op[1] % len(tids)], op[2])
            on_both(lambda system: system.source("s").apply_update(key, op[3]))
        elif kind == "refresh" and tids:
            member = members[op[1] % len(members)]
            wanted = sorted({tids[i % len(tids)] for i in op[2]})
            held = [t for t in wanted if t in bulk.cache(member).table("t")]
            on_both(
                lambda system: system.cache(member).refresh(
                    system.cache(member).table("t"), held
                )
            )
        elif kind == "insert":
            values = {"x": op[1], "y": op[2], "g": 0.0}
            on_both(lambda system: system.source("s").insert_row("t", dict(values)))
        elif kind == "delete" and len(tids) > 1:
            tid = tids[op[1] % len(tids)]
            on_both(lambda system: system.source("s").delete_row("t", tid))
        elif kind == "migrate" and tids:
            tid = tids[op[1] % len(tids)]
            on_both(lambda system: system.source("s").migrate_master("t", tid, op[2]))
        elif kind == "admit" and len(members) < MAX_MEMBERS and not evicted:
            name = f"g/a{admitted}"
            admitted += 1
            on_both(lambda system: system.admit_cache(name, "g"))
        elif kind == "detach" and len(members) > 1:
            member = members[op[1] % len(members)]
            on_both(lambda system: system.detach_cache(member))
        elif kind == "evict" and tids:
            # The cached row goes, its subscriptions stay: the sweep must
            # skip what the table no longer holds.  (No protocol message
            # does this, and a cache in that state cannot donate a
            # snapshot the group would accept, hence no admit after it.)
            member = members[op[1] % len(members)]
            tid = tids[op[2] % len(tids)]
            if tid in bulk.cache(member).table("t"):
                evicted = True
                on_both(lambda system: system.cache(member).table("t").delete(tid))
        on_both(
            lambda system: [cache.sync_bounds() for cache in system.group("g")]
        )
        _assert_twins_agree(bulk, oracle, context)
        _assert_standing_clock_is_free(bulk, context)


def test_kernels_match_bound_function_at_on_awkward_values():
    """Signed zeros, huge widths and overflow, cell by cell, all shapes."""
    from repro.bounds.functions import BoundFunction
    from repro.replication.cache import _BoundColumn, _half_widths

    values = (0.0, -0.0, 1.0 / 3.0, -7.5, 1e300, -1e308, math.inf)
    widths = (0.0, 1e-320, 0.1, 3.0, 1e308)
    refreshed = (0.0, 1.0 / 3.0, 9.75)
    for now in (9.75, 10.0, 1e6):
        for shape in SHAPES[:3]:
            params = _BoundColumn("t", "x")
            functions = [
                BoundFunction(v, w, t, shape)
                for v in values for w in widths for t in refreshed
            ]
            for tid, function in enumerate(functions):
                params.add(tid, function)
            _, value, width, refreshed_at, codes = params.parameters()
            half, custom = _half_widths(width, codes, now - refreshed_at)
            assert custom == []
            with np.errstate(invalid="ignore", over="ignore"):
                lo, hi = value - half, value + half
            for at, function in enumerate(functions):
                assert half[at] == function.half_width_at(now)
                if math.isnan(lo[at]) or math.isnan(hi[at]):
                    continue  # at() raises; pinned in tests/replication
                bound = function.at(now)
                expected = np.array([bound.lo, bound.hi])
                assert np.array([lo[at], hi[at]]).tobytes() == expected.tobytes()
