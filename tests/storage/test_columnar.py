"""ColumnStore: arrays, dirty counters, and the rows built from them."""

import numpy as np
import pytest

from repro.core.bound import Bound
from repro.core.refresh.base import candidate_costs, uniform_cost
from repro.core.refresh.costs import ColumnCostModel, UniformCostModel
from repro.errors import TrappError, UnknownColumnError
from repro.predicates.batch import classify_dense, classify_report
from repro.predicates.parser import parse_predicate
from repro.storage.columnar import (
    ColumnStore,
    candidate_order,
    harvest_candidates,
)
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_schema():
    return Schema.of(x="bounded", y="bounded", cost="exact", tag="text")


def make_table():
    table = Table("t", make_schema())
    table.insert({"x": Bound(0, 10), "y": 1.0, "cost": 2.0, "tag": "a"})
    table.insert({"x": Bound(5, 5), "y": Bound(3, 7), "cost": 4.0, "tag": "b"})
    table.insert({"x": 2.0, "y": Bound(0, 0), "cost": 6.0, "tag": "a"})
    return table


class TestStoreBasics:
    def test_table_builds_store(self):
        table = make_table()
        assert isinstance(table.columns, ColumnStore)
        assert len(table.columns) == 3

    def test_endpoints_in_tid_order(self):
        store = make_table().columns
        lo, hi = store.endpoints("x")
        assert lo.tolist() == [0.0, 5.0, 2.0]
        assert hi.tolist() == [10.0, 5.0, 2.0]

    def test_exact_column_endpoints_degenerate(self):
        store = make_table().columns
        lo, hi = store.endpoints("cost")
        assert lo.tolist() == hi.tolist() == [2.0, 4.0, 6.0]

    def test_text_values(self):
        store = make_table().columns
        assert store.objects("tag").tolist() == ["a", "b", "a"]
        assert store.is_text("tag") and not store.is_text("x")

    def test_unknown_column_raises(self):
        store = make_table().columns
        with pytest.raises(UnknownColumnError):
            store.endpoints("ghost")
        with pytest.raises(UnknownColumnError):
            store.column_exact("ghost")

    def test_growth_beyond_initial_capacity(self):
        table = Table("t", Schema.of(x="bounded"))
        for i in range(100):
            table.insert({"x": Bound(i, i + 1)})
        lo, hi = table.columns.endpoints("x")
        assert len(lo) == 100
        assert lo[99] == 99.0 and hi[99] == 100.0


class TestDirtyCounters:
    def test_column_exact_is_counter_backed(self):
        table = make_table()
        assert not table.columns.column_exact("x")  # tuple 1 is wide
        assert not table.columns.column_exact("y")
        assert table.columns.non_exact_count("x") == 1
        assert table.columns.non_exact_count("y") == 1

    def test_exact_and_text_columns_always_exact(self):
        table = make_table()
        assert table.columns.column_exact("cost")
        assert table.columns.column_exact("tag")

    def test_refresh_clears_counter(self):
        table = make_table()
        table.update_value(1, "x", 4.0)
        assert table.columns.column_exact("x")
        assert table.columns.non_exact_count("x") == 0

    def test_widening_raises_counter(self):
        table = make_table()
        table.update_value(2, "x", Bound(0, 1))
        assert table.columns.non_exact_count("x") == 2

    def test_delete_updates_counter(self):
        table = make_table()
        table.delete(1)
        assert table.columns.column_exact("x")
        assert not table.columns.column_exact("y")

    def test_empty_store_vacuously_exact(self):
        table = Table("t", Schema.of(x="bounded"))
        assert table.columns.column_exact("x")
        assert table.column_exact("x")


class TestWriteThrough:
    def test_table_update_value_writes_through(self):
        table = make_table()
        table.update_value(1, "x", Bound(1, 2))
        lo, hi = table.columns.endpoints("x")
        assert lo[0] == 1.0 and hi[0] == 2.0


class TestDeletionAndOrder:
    def test_swap_delete_keeps_tid_order(self):
        table = make_table()
        table.delete(2)
        store = table.columns
        assert store.sorted_tids().tolist() == [1, 3]
        lo, hi = store.endpoints("x")
        assert lo.tolist() == [0.0, 2.0]
        assert store.objects("tag").tolist() == ["a", "a"]

    def test_reinsert_after_delete(self):
        table = make_table()
        table.delete(1)
        table.insert({"x": Bound(7, 8), "y": 0.0, "cost": 1.0, "tag": "z"}, tid=1)
        lo, hi = table.columns.endpoints("x")
        assert lo.tolist() == [7.0, 5.0, 2.0]

    def test_double_remove_raises(self):
        table = make_table()
        table.columns.remove(1)
        with pytest.raises(TrappError):
            table.columns.remove(1)

    def test_snapshots_are_stable(self):
        table = make_table()
        lo, _ = table.columns.endpoints("x")
        before = lo.copy()
        table.update_value(1, "x", 5.0)
        assert np.array_equal(lo, before)  # old snapshot unchanged
        new_lo, _ = table.columns.endpoints("x")
        assert new_lo[0] == 5.0


class TestAgainstRowScan:
    def test_matches_row_bounds(self):
        table = make_table()
        lo, hi = table.columns.endpoints("x")
        for i, row in enumerate(table.rows()):
            assert row.bound("x").lo == lo[i]
            assert row.bound("x").hi == hi[i]

    def test_column_exact_matches_row_scan(self):
        table = make_table()
        for column in ("x", "y", "cost"):
            scan = all(row.is_exact(column) for row in table)
            assert table.column_exact(column) == scan


class TestWidthOrder:
    """The incremental planner cache: epoch reuse, repair, rebuild."""

    def _reference(self, store, column):
        lo, hi = store.endpoints(column)
        widths = hi - lo
        positions = np.argsort(widths, kind="stable")
        return store.sorted_tids()[positions], widths[positions]

    def test_sorted_by_width_then_tid(self):
        table = make_table()
        order = table.columns.width_order("x")
        ref_tids, ref_widths = self._reference(table.columns, "x")
        assert np.array_equal(order.tids, ref_tids)
        assert np.allclose(order.widths, ref_widths)

    def test_epoch_reuse_is_identity(self):
        table = make_table()
        first = table.columns.width_order("x")
        assert table.columns.width_order("x") is first

    def test_write_through_repair(self):
        table = make_table()
        table.columns.width_order("x")
        table.update_value(1, "x", Bound(0, 1))
        order = table.columns.width_order("x")
        ref_tids, ref_widths = self._reference(table.columns, "x")
        assert np.array_equal(order.tids, ref_tids)
        assert np.allclose(order.widths, ref_widths)

    def test_other_column_writes_reuse_the_cached_ordering(self):
        table = make_table()
        first = table.columns.width_order("x")
        table.update_value(1, "y", Bound(0, 9))
        # The version moved, but no x width changed: the cached ordering
        # is still exact and must be re-stamped, not rebuilt.
        assert table.columns.width_order("x") is first

    def test_repair_preserves_tid_order_within_width_ties(self):
        table = Table("t", Schema.of(x="bounded"))
        for lo, hi in [(0, 3), (0, 1), (0, 5), (0, 3)]:  # tids 1..4
            table.insert({"x": Bound(float(lo), float(hi))})
        store = table.columns
        store.width_order("x")
        # Repairing tid 3 into a width-3 tie with tids 1 and 4 must slot
        # it between them — exactly where a fresh stable argsort puts it.
        table.update_value(3, "x", Bound(0.0, 3.0))
        repaired = store.width_order("x")
        assert list(repaired.tids) == [2, 1, 3, 4]
        fresh = store._build_width_order("x")
        assert np.array_equal(repaired.tids, fresh.tids)
        assert np.allclose(repaired.widths, fresh.widths)

    def test_insert_and_delete_rebuild(self):
        table = make_table()
        table.columns.width_order("x")
        table.insert({"x": Bound(0, 0.5), "y": 1.0, "cost": 1.0, "tag": "c"})
        order = table.columns.width_order("x")
        ref_tids, ref_widths = self._reference(table.columns, "x")
        assert np.array_equal(order.tids, ref_tids)
        table.delete(2)
        order = table.columns.width_order("x")
        ref_tids, ref_widths = self._reference(table.columns, "x")
        assert np.array_equal(order.tids, ref_tids)
        assert np.allclose(order.widths, ref_widths)

    def test_positions_map_back_to_tid_order(self):
        table = make_table()
        order = table.columns.width_order("x")
        lo, hi = table.columns.endpoints("x")
        assert np.allclose((hi - lo)[order.positions], order.widths)

    def test_text_column_rejected(self):
        table = make_table()
        with pytest.raises(TrappError):
            table.columns.width_order("tag")
        with pytest.raises(UnknownColumnError):
            table.columns.width_order("missing")


class TestHarvestCandidates:
    def test_whole_table_uniform(self):
        from repro.storage.columnar import harvest_candidates

        table = make_table()
        cv = harvest_candidates(table.columns, "x", np.full(3, 2.0))
        assert list(cv.tids) == [1, 2, 3]
        assert list(cv.widths) == [10.0, 0.0, 0.0]
        assert list(cv.costs) == [2.0, 2.0, 2.0]
        assert cv.cost_min == cv.cost_max == 2.0
        assert cv.costs_integral
        # order ascends by (width, tid)
        assert [int(cv.tids[k]) for k in cv.order] == [2, 3, 1]

    def test_cost_column(self):
        from repro.storage.columnar import harvest_candidates

        table = make_table()
        costs = table.columns.endpoints("cost")[0]
        cv = harvest_candidates(table.columns, "x", costs)
        assert list(cv.costs) == [2.0, 4.0, 6.0]
        assert (cv.cost_min, cv.cost_max, cv.cost_total) == (2.0, 6.0, 12.0)
        assert cv.costs_integral

    def test_whole_table_harvest_reuses_the_cached_width_vector(self):
        """No ``hi - lo`` per query: the widths handed to the planner are
        the width ordering's own vector."""
        from repro.storage.columnar import harvest_candidates

        store = make_table().columns
        cv = harvest_candidates(store, "x", np.ones(len(store)))
        assert np.shares_memory(cv.widths, store.width_order("x").keys_by_tid)

    def test_classified_widths_extend_to_zero(self):
        from repro.predicates.batch import classify_report
        from repro.predicates.parser import parse_predicate
        from repro.storage.columnar import harvest_candidates

        schema = Schema.of(x="bounded")
        table = Table("t", schema)
        table.insert({"x": Bound(4, 6)})     # T+ for x > 3
        table.insert({"x": Bound(2, 8)})     # T?
        table.insert({"x": Bound(-5, -1)})   # T−
        predicate = parse_predicate("x > 3")
        positions = classify_report(table.columns, predicate).positions
        cv = harvest_candidates(table.columns, "x", np.ones(2), positions=positions)
        # T+ keeps its raw width; T? extends to zero (§6.2); T− is absent.
        assert list(cv.tids) == [1, 2]
        assert list(cv.widths) == [2.0, 8.0]

    def test_classified_refinement_restricts_maybe(self):
        from repro.predicates.batch import classify_report
        from repro.predicates.parser import parse_predicate
        from repro.storage.columnar import harvest_candidates

        schema = Schema.of(x="bounded")
        table = Table("t", schema)
        table.insert({"x": Bound(2, 8)})  # T? for x > 3
        predicate = parse_predicate("x > 3")
        positions = classify_report(table.columns, predicate).positions
        cv = harvest_candidates(
            table.columns, "x", np.ones(1), positions=positions, predicate=predicate
        )
        # Appendix D: the T? bound is first restricted to (3, 8], then
        # extended to zero → width 8.
        assert list(cv.widths) == [8.0]

    def test_solver_vectors_are_flat_arrays(self):
        from array import array

        from repro.storage.columnar import harvest_candidates

        table = make_table()
        cv = harvest_candidates(table.columns, "x", np.ones(3))
        weights, costs, order = cv.solver_vectors()
        assert isinstance(weights, array) and weights.typecode == "d"
        assert isinstance(costs, array) and costs.typecode == "d"
        assert isinstance(order, array) and order.typecode == "q"
        assert list(weights) == list(cv.widths)


class TestEndpointOrder:
    """The §5.1 endpoint indexes share the width cache's lifecycle."""

    def _reference(self, store, column, side):
        lo, hi = store.endpoints(column)
        keys = lo if side == "lo" else hi
        positions = np.argsort(keys, kind="stable")
        return store.sorted_tids()[positions], keys[positions]

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_sorted_by_endpoint_then_tid(self, side):
        store = make_table().columns
        order = store.endpoint_order("x", side)
        ref_tids, ref_keys = self._reference(store, "x", side)
        assert np.array_equal(order.tids, ref_tids)
        assert np.array_equal(order.keys, ref_keys)

    def test_epoch_reuse_is_identity(self):
        store = make_table().columns
        first = store.endpoint_order("x", "lo")
        assert store.endpoint_order("x", "lo") is first

    def test_lo_and_hi_are_independent_orderings(self):
        store = make_table().columns
        lo_order = store.endpoint_order("x", "lo")
        hi_order = store.endpoint_order("x", "hi")
        assert lo_order is not hi_order
        # x bounds: (0,10), (5,5), (2,2) → lo order 1,3,2 / hi order 3,2,1.
        assert list(lo_order.tids) == [1, 3, 2]
        assert list(hi_order.tids) == [3, 2, 1]

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_write_through_repair_matches_rebuild(self, side):
        table = make_table()
        store = table.columns
        store.endpoint_order("x", side)
        table.update_value(1, "x", Bound(6.0, 8.0))
        order = store.endpoint_order("x", side)
        ref_tids, ref_keys = self._reference(store, "x", side)
        assert np.array_equal(order.tids, ref_tids)
        assert np.array_equal(order.keys, ref_keys)

    def test_structural_churn_rebuilds(self):
        table = make_table()
        store = table.columns
        store.endpoint_order("x", "lo")
        table.insert({"x": Bound(-5, -1), "y": 1.0, "cost": 1.0, "tag": "c"})
        table.delete(2)
        order = store.endpoint_order("x", "lo")
        ref_tids, ref_keys = self._reference(store, "x", "lo")
        assert np.array_equal(order.tids, ref_tids)
        assert np.array_equal(order.keys, ref_keys)

    def test_keys_by_tid_matches_endpoints(self):
        store = make_table().columns
        lo, hi = store.endpoints("x")
        assert np.array_equal(store.endpoint_order("x", "lo").keys_by_tid, lo)
        assert np.array_equal(store.endpoint_order("x", "hi").keys_by_tid, hi)
        assert not store.endpoint_order("x", "lo").keys_by_tid.flags.writeable

    def test_invalid_side_rejected(self):
        store = make_table().columns
        with pytest.raises(TrappError):
            store.endpoint_order("x", "mid")

    def test_text_column_rejected(self):
        store = make_table().columns
        with pytest.raises(TrappError):
            store.endpoint_order("tag", "lo")
        with pytest.raises(UnknownColumnError):
            store.endpoint_order("missing", "lo")

    def test_other_column_writes_restamp(self):
        table = make_table()
        first = table.columns.endpoint_order("x", "hi")
        table.update_value(1, "y", Bound(0, 9))
        assert table.columns.endpoint_order("x", "hi") is first

    def test_a_cell_write_marks_the_live_orders_of_its_column_only(self):
        table = make_table()
        store = table.columns
        width, lo, hi = (
            store.width_order("x"),
            store.endpoint_order("x", "lo"),
            store.endpoint_order("x", "hi"),
        )
        other = store.width_order("y")
        table.update_value(1, "x", Bound(6.0, 8.0))
        assert width.dirty == lo.dirty == hi.dirty == {1}
        assert not other.dirty
        repaired = store.endpoint_order("x", "lo")  # installs a new object
        assert repaired is not lo and not repaired.dirty
        table.update_value(2, "x", Bound(1.0, 2.0))
        assert repaired.dirty == {2}
        assert width.dirty == hi.dirty == {1, 2}
        assert not other.dirty


class TestRepeatedTieRepairs:
    """ISSUE 10 satellite: repairs into a growing key tie stay
    tid-ascending — for the width cache *and* both endpoint indexes,
    which share the same splice-repair helper."""

    def _growing_tie(self, order_of, rebuild, set_value, run_key):
        # tids 5, 2, 7 are rewritten one at a time into the key shared
        # with tid 4; after every repair the ordering must equal a fresh
        # stable argsort, and the final tie run must be tid-ascending.
        repaired = None
        for tid in (5, 2, 7):
            set_value(tid)
            repaired = order_of()
            fresh = rebuild()
            assert np.array_equal(repaired.tids, fresh.tids)
            assert np.array_equal(repaired.keys, fresh.keys)
        run = repaired.tids[np.flatnonzero(repaired.keys == run_key)]
        assert list(run) == [2, 4, 5, 7]

    def test_width_order(self):
        table = Table("t", Schema.of(x="bounded"))
        for i in range(8):
            table.insert({"x": Bound(0.0, float(i))})  # widths 0..7
        store = table.columns
        store.width_order("x")
        self._growing_tie(
            lambda: store.width_order("x"),
            lambda: store._build_width_order("x"),
            lambda tid: table.update_value(tid, "x", Bound(0.0, 3.0)),
            3.0,
        )

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_endpoint_orders(self, side):
        table = Table("t", Schema.of(x="bounded"))
        for i in range(8):
            table.insert({"x": Bound(float(i), float(i) + 0.5)})
        store = table.columns
        store.endpoint_order("x", side)
        target = Bound(3.0, 3.5)  # ties tid 4 on both endpoints
        self._growing_tie(
            lambda: store.endpoint_order("x", side),
            lambda: store._build_sorted_order("x", side),
            lambda tid: table.update_value(tid, "x", target),
            3.0 if side == "lo" else 3.5,
        )


class TestCandidateOrder:
    """candidate_order must be bit-identical to np.lexsort((tids, widths))."""

    def _assert_matches_lexsort(self, widths, tids):
        got = candidate_order(widths, tids)
        assert np.array_equal(got, np.lexsort((tids, widths)))

    def test_random_widths(self):
        rng = np.random.default_rng(7)
        widths = rng.uniform(0, 100, 500)
        tids = rng.permutation(500).astype(np.int64) + 1
        self._assert_matches_lexsort(widths, tids)

    def test_tie_runs_reordered_tid_ascending(self):
        widths = np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0])
        tids = np.array([9, 8, 2, 5, 4, 1], dtype=np.int64)
        self._assert_matches_lexsort(widths, tids)

    def test_nan_widths_fall_back(self):
        widths = np.array([3.0, np.nan, 1.0, np.nan])
        tids = np.array([4, 3, 2, 1], dtype=np.int64)
        self._assert_matches_lexsort(widths, tids)

    def test_pervasive_ties_fall_back(self):
        # > 64 multi-element tie runs (e.g. a mostly-exact table at
        # width zero) takes the lexsort path; output is identical.
        rng = np.random.default_rng(11)
        widths = np.repeat(np.arange(100.0), 3)
        tids = rng.permutation(300).astype(np.int64) + 1
        self._assert_matches_lexsort(widths, tids)

    def test_empty(self):
        widths = np.empty(0)
        tids = np.empty(0, dtype=np.int64)
        assert len(candidate_order(widths, tids)) == 0


class TestHarvestPositionsRoute:
    """Harvest from the index route's positions vs the dense route's."""

    def _big_table(self):
        table = Table("t", Schema.of(x="bounded", cost="exact"))
        rng = np.random.default_rng(3)
        for i in range(200):
            center = float(rng.uniform(0, 100))
            w = float(rng.uniform(0, 10))
            table.insert(
                {"x": Bound(center - w, center + w), "cost": float(i % 7 + 1)}
            )
        return table

    def _routes(self, table, text, cost=uniform_cost, **kwargs):
        predicate = parse_predicate(text)
        report = classify_report(table.columns, predicate)
        certain, possible = classify_dense(table.columns, predicate)
        dense = (np.flatnonzero(certain), np.flatnonzero(possible & ~certain))
        assert report.used_index
        return tuple(
            harvest_candidates(
                table.columns, "x",
                candidate_costs(table, cost, np.concatenate(positions)),
                positions=positions, **kwargs,
            )
            for positions in (report.positions, dense)
        )

    @pytest.mark.parametrize("text", ["x > 50", "x <= 20", "x > 30 AND x < 70"])
    def test_identical_to_mask_route(self, text):
        table = self._big_table()
        a, b = self._routes(table, text)
        for field in ("tids", "widths", "costs", "order"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert (a.cost_min, a.cost_max, a.cost_total, a.costs_integral) == (
            b.cost_min, b.cost_max, b.cost_total, b.costs_integral
        )

    def test_identical_with_cost_column_and_refinement(self):
        table = self._big_table()
        predicate = parse_predicate("x > 50")
        a, b = self._routes(
            table, "x > 50", ColumnCostModel("cost"), predicate=predicate
        )
        for field in ("tids", "widths", "costs", "order"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_uniform_cost_stats_match_a_sweep(self):
        table = self._big_table()
        for value, integral in ((2.0, True), (0.75, False)):
            cv, _ = self._routes(table, "x > 50", UniformCostModel(value))
            assert cv.cost_min == cv.cost_max == value
            assert cv.costs_integral is integral
            assert cv.cost_total == float(cv.costs.sum())
            rounded = np.rint(cv.costs)
            assert bool(np.all(np.abs(cv.costs - rounded) <= 1e-9)) is integral


class TestWriteBounds:
    """The bulk primitive: one pass, one version bump."""

    def _wide_table(self, n=100):
        table = Table("t", Schema.of(x="bounded", y="bounded"))
        for k in range(n):
            table.insert({"x": Bound(float(k), float(k + 1 + k % 7)), "y": 0.0})
        return table

    def _write(self, table, tids, lo, hi):
        store = table.columns
        slots = store.slots_of(tids)
        return store.write_bounds(
            "x", slots, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        )

    def test_counters_move_by_the_net_change(self):
        table = make_table()  # x: tid 1 wide, tids 2 and 3 exact
        store = table.columns
        assert store.non_exact_count("x") == 1
        changed = self._write(table, [1, 2, 3], [4.0, 5.0, 1.0], [4.0, 6.0, 3.0])
        assert sorted(changed.tolist()) == [1, 2, 3]
        assert store.non_exact_count("x") == 2
        assert not store.column_exact("x")
        self._write(table, [2, 3], [5.0, 2.0], [5.0, 2.0])
        assert store.column_exact("x")
        assert store.non_exact_count("y") == 1  # other columns untouched

    def test_one_version_bump_and_only_changed_cells_reported(self):
        table = make_table()
        store = table.columns
        version = store.version
        changed = self._write(table, [1, 2, 3], [0.0, 5.0, 1.0], [10.0, 5.0, 3.0])
        assert changed.tolist() == [3]  # tids 1 and 2 already held these
        assert store.version == version + 1

    def test_no_op_leaves_the_store_untouched(self):
        table = make_table()
        store = table.columns
        orders = [store.width_order("x"), store.endpoint_order("x", "lo")]
        version = store.version
        changed = self._write(table, [1, 2, 3], [0.0, 5.0, 2.0], [10.0, 5.0, 2.0])
        assert len(changed) == 0
        assert store.version == version
        assert store.width_order("x") is orders[0]
        assert store.endpoint_order("x", "lo") is orders[1]
        assert len(self._write(table, [], [], [])) == 0
        assert store.version == version

    def test_few_changes_mark_dirty_many_mark_stale(self):
        table = self._wide_table(100)  # repair threshold: max(32, 100 // 8)
        store = table.columns
        kinds = [("x", "width"), ("x", "lo"), ("x", "hi")]
        for order in (store.width_order("x"), store.endpoint_order("x", "lo"),
                      store.endpoint_order("x", "hi")):
            assert not order.dirty and not order.stale
        few = list(range(1, 33))
        self._write(table, few, [-1.0] * 32, [float(t) for t in few])
        for key in kinds:
            order = store._sorted_orders[key]
            assert order.dirty == set(few) and not order.stale
        # One more changed tuple crosses the threshold: no point keeping
        # a dirty set nobody will splice.
        self._write(table, [40], [-2.0], [50.0])
        for key in kinds:
            assert store._sorted_orders[key].stale
        for kind in ("width", "lo", "hi"):
            rebuilt = store._sorted_order("x", kind)
            fresh = store._build_sorted_order("x", kind)
            assert rebuilt.tids.tolist() == fresh.tids.tolist()
            assert rebuilt.keys.tolist() == fresh.keys.tolist()

    def test_dirty_orders_repair_to_a_fresh_build(self):
        table = self._wide_table(100)
        store = table.columns
        before = [store.width_order("x"), store.endpoint_order("x", "hi")]
        self._write(table, [3, 50, 77], [0.0, 0.0, 76.0], [0.5, 0.0, 76.0])
        for kind, old in zip(("width", "hi"), before):
            repaired = store._sorted_order("x", kind)
            assert repaired is not old
            fresh = store._build_sorted_order("x", kind)
            assert repaired.tids.tolist() == fresh.tids.tolist()
            assert repaired.keys.tolist() == fresh.keys.tolist()
        # y was not written: its ordering is re-stamped, not rebuilt.
        y_order = store.width_order("y")
        self._write(table, [3], [1.0], [2.0])
        assert store.width_order("y") is y_order

    def test_slots_stay_aligned_after_a_swap_remove(self):
        table = self._wide_table(6)
        store = table.columns
        layout = store.layout_version
        table.delete(2)  # tid 6 is swapped into tid 2's slot
        assert store.layout_version == layout + 1
        slots = store.slots_of([6, 2, 1])
        assert slots.tolist() == [1, -1, 0]
        self._write(table, [6, 1], [60.0, 10.0], [61.0, 12.0])
        assert table.row(6)["x"] == Bound(60.0, 61.0)
        assert table.row(1)["x"] == Bound(10.0, 12.0)
        assert table.row(3)["x"] == Bound(2.0, 5.0)
        lo, hi = store.endpoints("x")  # tid order: 1, 3, 4, 5, 6
        assert lo.tolist() == [10.0, 2.0, 3.0, 4.0, 60.0]
        assert hi.tolist() == [12.0, 5.0, 7.0, 9.0, 61.0]

    def test_only_bounded_columns(self):
        table = make_table()
        slots = table.columns.slots_of([1])
        one = np.array([1.0])
        with pytest.raises(TrappError):
            table.columns.write_bounds("cost", slots, one, one)
        with pytest.raises(UnknownColumnError):
            table.columns.write_bounds("missing", slots, one, one)


class TestWriteCell:
    """The single-cell twin of ``write_bounds``: endpoints in, no objects."""

    def test_an_absent_tuple_is_false_and_nothing_moves(self):
        table = make_table()
        table.delete(2)  # once held, and never held
        store = table.columns
        orders = [store.width_order("x"), store.endpoint_order("x", "hi")]
        before = (
            store.version, store.non_exact_count("x"),
            [array.tolist() for array in store.endpoints("x")],
        )
        assert store.write_cell(2, "x", 1.0, 2.0) is False
        assert store.write_cell(99, "x", 1.0, 2.0) is False
        assert before == (
            store.version, store.non_exact_count("x"),
            [array.tolist() for array in store.endpoints("x")],
        )
        assert not any(order.dirty or order.stale for order in orders)
        assert store.width_order("x") is orders[0]

    def test_only_bounded_columns(self):
        store = make_table().columns
        with pytest.raises(TrappError):
            store.write_cell(1, "cost", 1.0, 1.0)  # EXACT
        with pytest.raises(TrappError):
            store.write_cell(1, "tag", 1.0, 1.0)  # TEXT
        with pytest.raises(UnknownColumnError):
            store.write_cell(1, "missing", 1.0, 1.0)
        assert store.endpoints("cost")[0].tolist() == [2.0, 4.0, 6.0]

    def test_the_counter_moves_both_ways(self):
        table = make_table()  # x: tid 1 wide, tids 2 and 3 exact
        store = table.columns
        assert store.write_cell(1, "x", 4.0, 4.0) is True
        assert store.column_exact("x")
        # Every cell exact: an exact one arriving cannot move the counter,
        # a wide one must.
        store.write_cell(2, "x", 6.0, 6.0)
        assert store.non_exact_count("x") == 0
        store.write_cell(2, "x", 6.0, 6.5)
        store.write_cell(3, "x", 0.0, 9.0)
        assert store.non_exact_count("x") == 2
        store.write_cell(3, "x", 1.0, 8.0)  # wide over wide
        assert store.non_exact_count("x") == 2
        store.write_cell(2, "x", 6.0, 6.0)
        assert store.non_exact_count("x") == 1
        assert store.non_exact_count("y") == 1  # other columns untouched
        lo, hi = store.endpoints("x")
        assert (lo.tolist(), hi.tolist()) == ([4.0, 6.0, 1.0], [4.0, 6.0, 8.0])

    def test_every_write_bumps_the_version_and_marks_live_orders(self):
        table = make_table()
        store = table.columns
        order_x, order_y = store.width_order("x"), store.endpoint_order("y", "lo")
        version = store.version
        store.write_cell(3, "x", 2.0, 2.0)  # the cell it already holds
        assert store.version == version + 1
        assert order_x.dirty == {3} and not order_y.dirty
        store.write_cell(1, "x", 7.0, 7.25)
        for kind in ("width", "lo", "hi"):
            repaired = store._sorted_order("x", kind)
            fresh = store._build_sorted_order("x", kind)
            assert repaired.tids.tolist() == fresh.tids.tolist()
            assert repaired.keys.tolist() == fresh.keys.tolist()
        assert store.endpoint_order("y", "lo") is order_y

    def test_rows_catch_up_lazily(self, monkeypatch):
        table = make_table()
        with monkeypatch.context() as patched:
            patched.setattr(Bound, "__init__", _no_bound)
            table.columns.write_cell(1, "x", 3.0, 4.0)
            table.columns.write_cell(3, "x", 2.0, 2.0)
        # Rows are built from the store when asked, so they see the writes.
        row1, row3 = table.row(1), table.row(3)
        assert row1["x"] == Bound(3.0, 4.0) and not row1.is_exact("x")
        assert type(row3["x"]) is float and row3["x"] == 2.0
        table.update_value(1, "x", Bound(7.0, 8.0))  # a table write after it wins
        assert table.row(1)["x"] == Bound(7.0, 8.0)
        assert table.columns.cell(1, "x") == (7.0, 8.0)

    def test_cell_reads_one_numeric_cell(self):
        store = make_table().columns
        assert store.cell(1, "x") == (0.0, 10.0)
        assert store.cell(3, "cost") == (6.0, 6.0)
        assert all(type(v) is float for v in store.cell(1, "x"))
        with pytest.raises(TrappError):
            store.cell(99, "x")
        with pytest.raises(TrappError):
            store.cell(1, "tag")
        with pytest.raises(UnknownColumnError):
            store.cell(1, "missing")


def _no_bound(*args, **kwargs):
    raise AssertionError("a cell write builds no Bound")


class TestRowsAreLazyViews:
    """Rows are read-only records built from the store when asked: one
    built after a bulk write sees it, one built before keeps its values."""

    def _bulk(self, table, tid, lo, hi):
        store = table.columns
        store.write_bounds(
            "x", store.slots_of([tid]), np.array([lo]), np.array([hi])
        )

    def test_every_read_accessor_sees_the_bulk_write(self):
        for read in (
            lambda row: row["x"],
            lambda row: row.get("x"),
            lambda row: row.bound("x"),
            lambda row: dict(row.items())["x"],
            lambda row: row.as_dict()["x"],
        ):
            table = make_table()
            self._bulk(table, 1, 3.0, 4.0)
            assert read(table.row(1)) == Bound(3.0, 4.0)
            assert read(table.rows()[0]) == Bound(3.0, 4.0)
        table = make_table()
        self._bulk(table, 1, 3.0, 4.0)
        assert not table.row(1).is_exact("x")
        assert "x=[3, 4]" in repr(table.row(1))
        assert table.row(1) == table.copy().row(1)
        assert table.column_bounds("x")[1] == Bound(3.0, 4.0)

    def test_unchanged_cells_keep_their_object_and_type(self):
        table = make_table()
        row3 = table.row(3)
        self._bulk(table, 1, 3.0, 4.0)
        # Exact bounded cells read back as floats, EXACT and TEXT cells as
        # the objects written; a record built earlier does not move.
        assert type(table.row(2)["x"]) is float and table.row(2)["x"] == 5.0
        assert table.row(3)["x"] == row3["x"] == 2.0 and row3.number("x") == 2.0
        assert table.row(3)["tag"] is row3["tag"]
        self._bulk(table, 3, 2.0, 2.5)
        assert table.row(3)["x"] == Bound(2.0, 2.5) and row3["x"] == 2.0

    def test_single_cell_writes_after_a_bulk_write_win(self):
        table = make_table()
        self._bulk(table, 1, 3.0, 4.0)
        table.update_value(1, "x", Bound(7.0, 8.0))  # row still stale here
        assert table.row(1)["x"] == Bound(7.0, 8.0)
        assert table.columns.endpoints("x")[0][0] == 7.0

    def test_deleted_row_keeps_the_values_it_left_with(self):
        table = make_table()
        self._bulk(table, 1, 3.0, 4.0)
        row = table.row(1)
        table.delete(1)
        assert row["x"] == Bound(3.0, 4.0)
        table.insert({"x": 9.0, "y": 1.0, "cost": 2.0, "tag": "z"}, tid=1)
        self._bulk(table, 1, 0.0, 1.0)
        assert row["x"] == Bound(3.0, 4.0)  # a record: follows nothing

    def test_rows_inserted_after_a_bulk_write_start_current(self):
        table = make_table()
        self._bulk(table, 1, 3.0, 4.0)
        row = table.insert({"x": 9.0, "y": 1.0, "cost": 2.0, "tag": "z"})
        assert row["x"] == 9.0 and table.row(row.tid) == row
