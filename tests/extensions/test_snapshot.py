"""Tests for snapshot reads (§8.4 multiversion concurrency)."""

import pytest

from examples.section8.snapshot import VersionedTable
from repro.core.aggregates import SUM
from repro.core.bound import Bound
from repro.errors import TrappError
from repro.storage.schema import Schema
from tests.protocol import bound_of, table_of


@pytest.fixture
def table():
    t = VersionedTable("t", Schema.of(x="bounded"))
    t.insert({"x": Bound(0, 10)}, tid=1)
    t.insert({"x": Bound(5, 6)}, tid=2)
    return t


class TestVersioning:
    def test_snapshot_is_stable_under_updates(self, table):
        snap = table.snapshot()
        table.update_value(1, "x", Bound.exact(3))
        assert snap.row(1)["x"] == Bound(0, 10)  # snapshot unchanged
        assert table.live.row(1).bound("x") == Bound.exact(3)  # live moved
        snap.close()

    def test_snapshot_is_stable_under_inserts_and_deletes(self, table):
        snap = table.snapshot()
        table.insert({"x": Bound(1, 2)}, tid=3)
        table.delete(2)
        assert snap.tids() == [1, 2]
        assert len(snap) == 2
        later = table.snapshot()
        assert later.tids() == [1, 3]
        snap.close()
        later.close()

    def test_row_not_alive_at_version(self, table):
        snap = table.snapshot()
        table.insert({"x": Bound(1, 2)}, tid=3)
        with pytest.raises(TrappError):
            snap.row(3)
        snap.close()

    def test_context_manager(self, table):
        with table.snapshot() as snap:
            assert len(snap) == 2
        with pytest.raises(TrappError):
            table.release(snap)  # already released

    def test_double_release_rejected(self, table):
        snap = table.snapshot()
        snap.close()
        with pytest.raises(TrappError):
            snap.close()


    def test_snapshot_taken_now_reads_like_the_live_table(self):
        """A fresh snapshot follows the live table's view rule: an exact
        bound reads back as a float, a wide one as a Bound, an int as the
        int written."""
        t = VersionedTable("t", Schema.of(x="bounded", k="exact"))
        t.insert({"x": Bound(3, 3), "k": 7}, tid=1)
        t.insert({"x": Bound(1, 4), "k": 8}, tid=2)
        t.insert({"x": 5, "k": 9}, tid=3)
        t.update_value(2, "x", Bound(6, 6))
        t.update_value(3, "x", Bound(0, 2))
        t.update_value(1, "k", 11)
        with t.snapshot() as snap:
            for tid in t.live.tids():
                assert snap.row(tid) == t.live.row(tid)
                for column in ("x", "k"):
                    assert type(snap.row(tid)[column]) is type(
                        t.live.row(tid)[column]
                    )


class TestQueryConsistency:
    def test_aggregate_over_snapshot_during_refresh_churn(self, table):
        """The §8.4 scenario: value-initiated refreshes land mid-query.

        The snapshot answer reflects a single consistent state; the precise
        answer at snapshot time lies inside it even though the live table
        has moved on.
        """
        snap = table.snapshot()
        before = bound_of(SUM, table_of(snap.rows(), snap.schema), "x")
        # Concurrent refreshes rewrite the live data entirely.
        table.update_value(1, "x", Bound.exact(100))
        table.update_value(2, "x", Bound.exact(200))
        after = bound_of(SUM, table_of(snap.rows(), snap.schema), "x")
        assert after == before == Bound(5, 16)
        live = bound_of(SUM, table.live, "x")
        assert live == Bound.exact(300)
        snap.close()

    def test_multiple_snapshots_at_different_versions(self, table):
        s1 = table.snapshot()
        table.update_value(1, "x", Bound(2, 4))
        s2 = table.snapshot()
        table.update_value(1, "x", Bound(3, 3))
        assert s1.row(1)["x"] == Bound(0, 10)
        assert s2.row(1)["x"] == Bound(2, 4)
        assert table.live.row(1).bound("x") == Bound(3, 3)
        s1.close()
        s2.close()


class TestGarbageCollection:
    def test_history_pruned_after_release(self, table):
        snap = table.snapshot()
        for i in range(20):
            table.update_value(1, "x", Bound(i, i + 1))
        deep = table.history_depth()
        snap.close()
        assert table.history_depth() < deep

    def test_open_snapshot_blocks_gc(self, table):
        snap = table.snapshot()
        for i in range(10):
            table.update_value(1, "x", Bound(i, i + 1))
        # A second snapshot opening and closing must not prune what the
        # first still needs.
        inner = table.snapshot()
        inner.close()
        assert snap.row(1)["x"] == Bound(0, 10)
        snap.close()
