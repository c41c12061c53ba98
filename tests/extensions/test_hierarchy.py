"""Tests for multi-level cache hierarchies (§8.1)."""

import pytest

from examples.section8.hierarchy import HierarchicalCache, LevelRoot, build_chain
from repro.core.executor import drive_steps, table_steps
from repro.errors import ReplicationProtocolError
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_eval import contains_bound


@pytest.fixture
def master():
    table = Table("metrics", Schema.of(value="bounded", label="text"))
    for i, v in enumerate([10.0, 20.0, 30.0, 40.0], start=1):
        table.insert({"value": v, "label": f"m{i}"}, tid=i)
    return table


@pytest.fixture
def chain(master):
    """Root -> regional (slack 2) -> edge (slack 5)."""
    return build_chain(master, slacks=[2.0, 5.0], names=["regional", "edge"])


class TestConstruction:
    def test_levels_mirror_master(self, chain, master):
        root, (regional, edge) = chain
        assert regional.table.tids() == master.tids()
        assert edge.table.tids() == master.tids()
        assert edge.table.row(1)["label"] == "m1"

    def test_bounds_nest_upward(self, chain, master):
        """Each level's bound contains the level below's (and the value)."""
        root, (regional, edge) = chain
        for tid in master.tids():
            value = master.row(tid).number("value")
            regional_bound = regional.current_bound("metrics", tid, "value")
            edge_bound = edge.current_bound("metrics", tid, "value")
            assert contains_bound(edge_bound, regional_bound)
            assert regional_bound.contains(value)
            assert edge_bound.contains(value)

    def test_slack_determines_width(self, chain):
        root, (regional, edge) = chain
        assert regional.current_bound("metrics", 1, "value").width == pytest.approx(4.0)
        # edge = regional bound (width 4) widened by 5 each side.
        assert edge.current_bound("metrics", 1, "value").width == pytest.approx(14.0)

    def test_negative_slack_rejected(self, master):
        root = LevelRoot(master)
        with pytest.raises(ReplicationProtocolError):
            HierarchicalCache("bad", root, "metrics", slack=-1.0)

    def test_wrong_table_rejected(self, chain):
        root, (regional, _) = chain
        with pytest.raises(ReplicationProtocolError):
            regional.current_bound("other", 1, "value")
        with pytest.raises(ReplicationProtocolError):
            root.current_bound("other", 1, "value")


class TestCascade:
    def test_tighten_cascades_to_root(self, chain):
        root, (regional, edge) = chain
        before = root.exact_reads
        bound = edge.tighten("metrics", 1, "value", 1.0)
        assert bound.width <= 1.0
        assert edge.forwarded_refreshes == 1
        assert regional.forwarded_refreshes == 1
        assert root.exact_reads == before + 1

    def test_tighten_served_locally_when_possible(self, chain):
        root, (regional, edge) = chain
        # Edge bound is width 14; asking for 20 needs no cascade.
        edge.tighten("metrics", 1, "value", 20.0)
        assert edge.forwarded_refreshes == 0
        assert root.exact_reads == 0

    def test_partial_cascade_stops_at_capable_level(self, chain):
        root, (regional, edge) = chain
        # Regional width is 4; edge asking for 9 needs regional's current
        # bound (4 <= 9 - 2*... wait: parent budget = 9 - 10 = 0) — with
        # edge slack 5, ANY finite target below 2*slack forces a root read.
        # Ask for 13.99: parent budget = 3.99 < 4 -> cascade required.
        edge.tighten("metrics", 1, "value", 13.99)
        assert edge.forwarded_refreshes == 1

    def test_refresh_collapses_to_exact(self, chain, master):
        root, (regional, edge) = chain
        edge.refresh(edge.table, [2])
        bound = edge.current_bound("metrics", 2, "value")
        assert bound.is_exact
        assert bound.lo == master.row(2).number("value")
        # The intermediate level also ends exact (it had to serve width 0).
        assert regional.current_bound("metrics", 2, "value").is_exact


class TestQueriesAtLevels:
    def test_executor_against_edge_level(self, chain, master):
        root, (regional, edge) = chain
        answer = drive_steps(table_steps(edge.table, "SUM", "value", 5.0), edge)
        assert answer.width <= 5 + 1e-9
        truth = sum(master.row(t).number("value") for t in master.tids())
        assert answer.bound.contains(truth)

    def test_looser_levels_give_looser_cached_answers(self, chain):
        root, (regional, edge) = chain
        from repro.core.aggregates import SUM

        regional_answer = SUM.bound_without_predicate(regional.table.columns, "value")
        edge_answer = SUM.bound_without_predicate(edge.table.columns, "value")
        assert contains_bound(edge_answer, regional_answer)
        assert edge_answer.width > regional_answer.width

    def test_three_level_chain(self, master):
        root, levels = build_chain(master, slacks=[1.0, 2.0, 4.0])
        leaf = levels[-1]
        answer = drive_steps(table_steps(leaf.table, "MIN", "value", 0.5), leaf)
        assert answer.width <= 0.5 + 1e-9
        assert answer.bound.contains(10.0)
        # The cascade reached the root through every level.
        assert all(level.forwarded_refreshes > 0 for level in levels)
