"""The replication cache keeps the column store consistent with itself (§3).

The refresh message handlers and ``DataCache.sync_bounds`` write the
cached table's :class:`~repro.storage.columnar.ColumnStore` — one array
evaluation and one ``ColumnStore.write_bounds`` per column, or one
``write_cell`` per payload — and rows are read-only records built from
it.  These tests pin the invariant every writer shares: after any cache
activity, the arrays and the exactness counters agree with a fresh row
scan."""

from dataclasses import dataclass

import pytest

from repro.bounds.functions import BoundFunction, LinearShape, SqrtShape
from repro.core.executor import drive_steps, table_steps
from repro.errors import BoundError
from repro.replication.cache import DataCache
from repro.replication.messages import (
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
)
from repro.replication.source import DataSource
from repro.simulation.clock import Clock
from repro.workloads.netmon import paper_master_table


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


def assert_store_consistent(table):
    store = table.columns
    rows = table.rows()
    assert store.sorted_tids().tolist() == [row.tid for row in rows]
    for column in table.schema:
        if column.kind.value == "text":
            assert store.objects(column.name).tolist() == [
                row[column.name] for row in rows
            ]
            continue
        lo, hi = store.endpoints(column.name)
        for i, row in enumerate(rows):
            bound = row.bound(column.name)
            assert (lo[i], hi[i]) == (bound.lo, bound.hi)
        if column.is_bounded:
            scan = sum(1 for row in rows if not row.is_exact(column.name))
            assert store.non_exact_count(column.name) == scan


class TestSyncBounds:
    def test_subscription_populates_store(self, cache):
        assert_store_consistent(cache.table("links"))

    def test_sync_bounds_writes_through(self, clock, cache):
        table = cache.table("links")
        clock.advance(5.0)
        cache.sync_bounds()
        # Bound functions widen with time: the store must see wide bounds.
        assert not table.column_exact("latency")
        assert_store_consistent(table)

    def test_query_refresh_recollapses_counters(self, clock, source, cache):
        clock.advance(5.0)
        cache.sync_bounds()
        table = cache.table("links")
        answer = drive_steps(table_steps(table, "SUM", "latency", 0.0), cache)
        assert answer.bound.is_exact
        assert table.column_exact("latency")
        assert_store_consistent(table)

    def test_cardinality_changes_write_through(self, source, cache):
        table = cache.table("links")
        source.insert_row(
            "links",
            {"from_node": 9.0, "to_node": 10.0, "latency": 1.0,
             "bandwidth": 2.0, "traffic": 0.5, "cost": 3.0},
        )
        source.delete_row("links", 2)
        assert 2 not in table
        assert_store_consistent(table)


class TestSyncNoOpSkip:
    """sync_bounds must not churn state when nothing widened (ISSUE 3).

    Rewriting identical bounds would bump the columnar store's version
    and invalidate the planner's epoch-cached width orderings on every
    query the service admits — the cache is only a cache if a standing
    clock leaves it untouched.
    """

    def test_same_instant_sync_is_a_no_op(self, clock, cache):
        table = cache.table("links")
        cache.sync_bounds()
        version = table.columns.version
        order = table.columns.width_order("traffic")
        cache.sync_bounds()  # clock did not advance: bounds are identical
        assert table.columns.version == version
        assert table.columns.width_order("traffic") is order

    def test_advancing_clock_still_widens(self, clock, cache):
        table = cache.table("links")
        cache.sync_bounds()
        before = [table.row(tid).bound("traffic").width for tid in table.tids()]
        clock.advance(50.0)
        cache.sync_bounds()
        after = [table.row(tid).bound("traffic").width for tid in table.tids()]
        assert any(b > a for a, b in zip(before, after)), "bounds must widen"
        assert_store_consistent(table)

    def test_width_order_repairs_after_refresh(self, clock, cache):
        from repro.replication.local import LocalRefresher  # noqa: F401

        table = cache.table("links")
        clock.advance(100.0)
        cache.sync_bounds()
        order = table.columns.width_order("traffic")
        victims = table.tids()[:3]
        cache.refresh(table, victims)  # collapses three bounds to exact
        repaired = table.columns.width_order("traffic")
        assert repaired is not order
        # The collapsed tuples now sort at the zero-width front.
        head = [int(t) for t in repaired.tids[: len(table.tids())]]
        for tid in victims:
            assert head.index(tid) < len(victims) + sum(
                1 for t in table.tids()
                if table.row(t).bound("traffic").width == 0.0
            )
        assert_store_consistent(table)


def _install(cache, key, function):
    """Deliver one crafted bound function as a value-initiated refresh."""
    value, width, refreshed_at = function.encode()
    cache._apply_refresh(
        Refresh(
            source_id="s1",
            reason=RefreshReason.VALUE_INITIATED,
            columns=(ColumnRefresh(key.table, key.column, (key.tid,), (value,), (width,)),),
            refreshed_at=refreshed_at,
            shape=function.shape,
        )
    )


class TestBulkSync:
    """What the column sweep must keep from the per-cell loop (ISSUE 12)."""

    def test_sync_never_calls_update_value(self, clock, cache, monkeypatch):
        table = cache.table("links")
        clock.advance(5.0)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("sync_bounds wrote a cell through the row API")

        monkeypatch.setattr(type(table), "update_value", forbidden)
        cache.sync_bounds()
        assert_store_consistent(table)

    def test_every_cell_equals_its_bound_function_now(self, clock, cache):
        table = cache.table("links")
        for step in (0.0, 0.5, 13.0):
            clock.advance(step)
            cache.sync_bounds()
            for key in cache.subscribed_keys():
                expected = cache.bound_function_of(key).at(clock.now())
                assert table.row(key.tid).bound(key.column) == expected

    def test_evaluation_before_refresh_time_raises(self, source):
        now = [10.0]
        cache = DataCache("c2", clock=lambda: now[0])
        source.clock = lambda: now[0]
        cache.subscribe_table(source, "links")
        cache.sync_bounds()
        now[0] = 9.0
        with pytest.raises(BoundError, match="before its refresh time"):
            cache.sync_bounds()
        now[0] = 10.0 - 1e-13  # inside the tolerance: clamps to zero width
        cache.sync_bounds()
        assert cache.table("links").column_exact("latency")

    def test_nan_endpoints_raise(self, clock, cache):
        key = ObjectKey("links", 1, "latency")
        # Valid when installed; by t = 10 the half-width overflows to ∞
        # and ∞ − ∞ is no endpoint.
        _install(
            cache, key, BoundFunction(float("inf"), 1e308, clock.now(), LinearShape())
        )
        clock.advance(10.0)
        with pytest.raises(BoundError, match="NaN"):
            cache.bound_function_of(key).at(clock.now())
        with pytest.raises(BoundError, match="NaN"):
            cache.sync_bounds()

    def test_overflowing_half_width_is_an_infinite_bound(self, clock, cache):
        key = ObjectKey("links", 1, "latency")
        _install(cache, key, BoundFunction(3.0, 1e308, clock.now(), LinearShape()))
        clock.advance(10.0)
        cache.sync_bounds()
        bound = cache.table("links").row(1)["latency"]
        assert bound == cache.bound_function_of(key).at(clock.now())
        assert (bound.lo, bound.hi) == (float("-inf"), float("inf"))

    def test_overflowing_endpoint_is_infinite_not_an_error(self, clock, cache):
        key = ObjectKey("links", 1, "latency")
        _install(cache, key, BoundFunction(-1e308, 1e308, clock.now(), LinearShape()))
        clock.advance(1.0)  # the half-width is finite; V − half is not
        cache.sync_bounds()
        bound = cache.table("links").row(1)["latency"]
        assert bound == cache.bound_function_of(key).at(clock.now())
        assert (bound.lo, bound.hi) == (float("-inf"), 0.0)

    def test_tuples_the_table_no_longer_holds_are_skipped(self, clock, cache):
        table = cache.table("links")
        table.delete(2)  # the subscriptions on tuple 2 stay behind
        clock.advance(4.0)
        cache.sync_bounds()
        assert 2 not in table
        assert_store_consistent(table)
        assert not table.column_exact("latency")

    def test_kernel_is_chosen_by_exact_shape_type(self, clock, cache):
        @dataclass(frozen=True, slots=True)
        class HalfSqrt(SqrtShape):
            def __call__(self, elapsed: float) -> float:
                return 0.5 * max(0.0, elapsed) ** 0.5

        key = ObjectKey("links", 1, "latency")
        function = BoundFunction(3.0, 2.0, clock.now(), HalfSqrt())
        _install(cache, key, function)
        clock.advance(16.0)
        cache.sync_bounds()
        bound = cache.table("links").row(1)["latency"]
        assert bound == function.at(clock.now())
        assert bound.width == 8.0  # 2 · (2.0 · 0.5 · √16), not the √ kernel's 16

    def test_dropped_subscriptions_leave_dense_parameter_slots(self, source, cache):
        source.delete_row("links", 2)
        for (table, column), params in cache._bound_columns.items():
            tids = params.tids[: params.n].tolist()
            assert 2 not in tids and len(set(tids)) == len(tids)
            assert sorted(params.slot_of) == sorted(tids)
            for tid in tids:
                slot = params.slot_of[tid]
                assert params.tids[slot] == tid
                function = cache.bound_function_of(ObjectKey(table, tid, column))
                assert params.value[slot] == function.value_at_refresh
                assert params.width[slot] == function.width_parameter


class TestSyncTelemetry:
    def test_one_observation_per_sync_not_per_cell(self, clock, cache):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        cache.attach_telemetry(registry)
        cells = len(cache.subscribed_keys())
        clock.advance(3.0)
        cache.sync_bounds()
        cache.sync_bounds()  # standing clock: every cell unchanged

        def cells_total(outcome):
            return registry.value_of(
                "trapp_bound_sync_cells_total", cache="c1", outcome=outcome
            )

        assert cache._t_sync_seconds.count == 2
        rewritten = cells_total("rewritten")
        assert 0 < rewritten <= cells
        assert rewritten + cells_total("unchanged") == 2 * cells
