"""Tests for join classification and the iterative refresh heuristic (§7).

``TestJoinRows`` pins the row-at-a-time reference in ``tests/oracle/``;
``TestJoinPairs`` the array form ``src/`` runs.  The two are compared on
random instances in ``tests/property/test_join_columnar.py``.
"""

import pytest

from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.errors import ConstraintUnsatisfiableError, UnknownColumnError
from repro.joins.classify import join_pairs, pair_index
from repro.core.executor import NullRefreshProvider, drive_steps
from repro.joins.refresh import join_steps
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_eval import Trilean
from tests.oracle.row_join import classify_joined, join_rows


@pytest.fixture
def link_node_tables():
    """A tiny links ⋈ nodes scenario with bounded node load."""
    links = Table("links", Schema.of(src="exact", dst="exact", latency="bounded"))
    links.insert({"src": 1, "dst": 2, "latency": Bound(2, 4)})
    links.insert({"src": 2, "dst": 3, "latency": Bound(5, 9)})
    links.insert({"src": 1, "dst": 3, "latency": Bound(1, 2)})

    nodes = Table("nodes", Schema.of(id="exact", load="bounded"))
    nodes.insert({"id": 1, "load": Bound(10, 30)})
    nodes.insert({"id": 2, "load": Bound(40, 60)})
    nodes.insert({"id": 3, "load": Bound(20, 80)})
    return links, nodes


@pytest.fixture
def master_tables():
    links = Table("links", Schema.of(src="exact", dst="exact", latency="bounded"))
    links.insert({"src": 1, "dst": 2, "latency": 3.0})
    links.insert({"src": 2, "dst": 3, "latency": 7.0})
    links.insert({"src": 1, "dst": 3, "latency": 1.5})

    nodes = Table("nodes", Schema.of(id="exact", load="bounded"))
    nodes.insert({"id": 1, "load": 25.0})
    nodes.insert({"id": 2, "load": 45.0})
    nodes.insert({"id": 3, "load": 70.0})
    return links, nodes


class TestJoinRows:
    def test_hash_join_on_exact_equality(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows([links, nodes], parse_predicate("dst = id"))
        # Each link matches exactly one node by dst.
        assert len(joined) == 3
        for jt in joined:
            assert jt.verdict is Trilean.TRUE
            assert jt.row["links.dst"] == jt.row["nodes.id"]

    def test_cross_product_without_predicate(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows([links, nodes])
        assert len(joined) == 9

    def test_bounded_join_condition_yields_maybes(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows(
            [links, nodes], parse_predicate("dst = id AND load > 25")
        )
        verdicts = {
            (jt.base["links"], jt.base["nodes"]): jt.verdict for jt in joined
        }
        # link1 -> node2 (load [40,60] > 25 certain).
        assert verdicts[(1, 2)] is Trilean.TRUE
        # link2 -> node3 (load [20,80]: maybe).
        assert verdicts[(2, 3)] is Trilean.MAYBE

    def test_impossible_tuples_dropped(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows(
            [links, nodes], parse_predicate("dst = id AND load > 1000")
        )
        assert joined == []

    def test_qualified_and_unqualified_access(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows([links, nodes], parse_predicate("dst = id"))
        row = joined[0].row
        assert "links.latency" in row
        assert "latency" in row  # unambiguous alias kept
        # 'id' exists only in nodes, so both forms work.
        assert row["nodes.id"] == row["id"]

    def test_classify_joined(self, link_node_tables):
        links, nodes = link_node_tables
        joined = join_rows(
            [links, nodes], parse_predicate("dst = id AND load > 25")
        )
        cls = classify_joined(joined)
        assert len(cls.plus) + len(cls.maybe) == len(joined)


def pairs_of(joined, maybe):
    """``{(links tid, nodes tid): is T?}`` in joined-tuple order."""
    return dict(
        zip(
            zip(joined.base_tids(0).tolist(), joined.base_tids(1).tolist()),
            maybe.tolist(),
        )
    )


class TestJoinPairs:
    def test_equality_key_yields_matching_pairs_only(self, link_node_tables):
        links, nodes = link_node_tables
        predicate = parse_predicate("dst = id")
        left, right = pair_index([links, nodes], predicate)
        # Positions in tuple-id order: each link meets the node its dst names.
        assert left.tolist() == [0, 1, 2]
        assert right.tolist() == [1, 2, 2]
        joined, maybe = join_pairs([links, nodes], predicate)
        assert pairs_of(joined, maybe) == {(1, 2): False, (2, 3): False, (3, 3): False}

    def test_cross_product_without_predicate(self, link_node_tables):
        links, nodes = link_node_tables
        joined, maybe = join_pairs([links, nodes])
        assert len(joined) == 9 and not maybe.any()
        assert joined.base_tids(0).tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert joined.base_tids(1).tolist() == [1, 2, 3] * 3

    def test_bounded_condition_yields_maybes_and_drops_impossible(
        self, link_node_tables
    ):
        links, nodes = link_node_tables
        joined, maybe = join_pairs(
            [links, nodes], parse_predicate("dst = id AND load > 45")
        )
        # node 2 holds [40, 60], node 3 [20, 80]: all three survive as T?.
        assert pairs_of(joined, maybe) == {(1, 2): True, (2, 3): True, (3, 3): True}
        joined, _ = join_pairs(
            [links, nodes], parse_predicate("dst = id AND load > 1000")
        )
        assert len(joined) == 0

    def test_deleted_tuples_leave_no_holes(self, link_node_tables):
        links, nodes = link_node_tables
        nodes.delete(2)
        joined, _ = join_pairs([links, nodes], parse_predicate("dst = id"))
        assert joined.base_tids(1).tolist() == [3, 3]

    def test_qualifier_picks_the_table_a_shared_name_reads(self):
        left = Table("l", Schema.of(v="bounded"))
        right = Table("r", Schema.of(v="bounded"))
        left.insert({"v": Bound(0, 1)})
        right.insert({"v": Bound(5, 6)})
        joined, _ = join_pairs([left, right])
        assert joined.endpoints(joined.column_key("v", "l"))[0].tolist() == [0.0]
        assert joined.endpoints(joined.column_key("v", "r"))[0].tolist() == [5.0]
        # Unqualified: the last table carrying the name, as the merged
        # row's alias did.
        assert joined.column_key("v") == joined.column_key("v", "r")
        with pytest.raises(UnknownColumnError):
            joined.column_key("w")

    def test_text_key_joins_by_sorting_strings(self):
        people = Table("people", Schema.of(city="text", age="bounded"))
        cities = Table("cities", Schema.of(name="text", size="bounded"))
        for city in ("oslo", "rome", "oslo"):
            people.insert({"city": city, "age": Bound(20, 30)})
        for name in ("rome", "oslo", "bern"):
            cities.insert({"name": name, "size": Bound(1, 2)})
        joined, _ = join_pairs([people, cities], parse_predicate("city = name"))
        assert list(
            zip(joined.base_tids(0).tolist(), joined.base_tids(1).tolist())
        ) == [(1, 2), (2, 1), (3, 2)]


class TestJoinRefreshHeuristic:
    def test_no_refresh_when_already_precise_enough(
        self, link_node_tables, master_tables
    ):
        links, nodes = link_node_tables
        refresher = _TwoTableRefresher(master_tables)
        steps = join_steps(
            [links, nodes],
            "SUM",
            ("nodes", "load"),
            1000.0,
            parse_predicate("dst = id"),
        )
        answer = drive_steps(steps, refresher)
        assert not answer.refreshed
        assert answer.bound.contains(45 + 70 + 70)

    def test_refreshes_until_constraint_met(self, link_node_tables, master_tables):
        links, nodes = link_node_tables
        refresher = _TwoTableRefresher(master_tables)
        steps = join_steps(
            [links, nodes],
            "SUM",
            ("nodes", "load"),
            10.0,
            parse_predicate("dst = id"),
        )
        answer = drive_steps(steps, refresher)
        assert answer.width <= 10 + 1e-9
        # Truth: node loads for dst 2, 3, 3 = 45 + 70 + 70.
        assert answer.bound.contains(185)

    def test_exact_constraint_drives_to_exact_answer(
        self, link_node_tables, master_tables
    ):
        links, nodes = link_node_tables
        refresher = _TwoTableRefresher(master_tables)
        steps = join_steps(
            [links, nodes],
            "MIN",
            ("links", "latency"),
            0.0,
            parse_predicate("dst = id AND load > 25"),
        )
        answer = drive_steps(steps, refresher)
        assert answer.bound.is_exact
        # All three joins survive (loads 45, 70, 70 > 25); min latency 1.5.
        assert answer.value == 1.5

    def test_count_join_query(self, link_node_tables, master_tables):
        links, nodes = link_node_tables
        refresher = _TwoTableRefresher(master_tables)
        steps = join_steps(
            [links, nodes],
            "COUNT",
            None,
            0.0,
            parse_predicate("dst = id AND load > 50"),
        )
        answer = drive_steps(steps, refresher)
        # Master: loads 45, 70, 70 -> two joined tuples pass.
        assert answer.bound == Bound.exact(2)

    def test_relative_constraint(self, link_node_tables, master_tables):
        """The join takes the constraint itself, re-resolved from every
        round's bound."""
        links, nodes = link_node_tables
        relative = RelativePrecision(0.02)
        steps = join_steps(
            [links, nodes], "SUM", ("nodes", "load"), relative,
            parse_predicate("dst = id"),
        )
        answer = drive_steps(steps, _TwoTableRefresher(master_tables))
        assert relative.satisfied_by(answer.bound)
        assert answer.bound.contains(185) and answer.refreshed

    def test_unsatisfiable_without_refresher(self, link_node_tables):
        links, nodes = link_node_tables
        steps = join_steps(
            [links, nodes], "SUM", ("nodes", "load"), 1.0, parse_predicate("dst = id")
        )
        with pytest.raises(ConstraintUnsatisfiableError):
            drive_steps(steps, NullRefreshProvider())

    def test_cost_awareness_prefers_cheap_tuples(
        self, link_node_tables, master_tables
    ):
        links, nodes = link_node_tables
        refresher = _TwoTableRefresher(master_tables)
        # Make node 3 absurdly expensive; loads of node 3 dominate the
        # uncertainty, but a cheap path should still be preferred when the
        # benefit difference is small.  We only assert the constraint holds
        # and cost is finite — the heuristic makes no optimality promise.
        costs = {("nodes", 3): 100.0}
        steps = join_steps(
            [links, nodes],
            "SUM",
            ("nodes", "load"),
            30.0,
            parse_predicate("dst = id"),
            cost=lambda row: costs.get(_row_key(row), 1.0),
        )
        answer = drive_steps(steps, refresher)
        assert answer.width <= 30 + 1e-9


def _row_key(row):
    if "id" in row:
        return ("nodes", row.tid)
    return ("links", row.tid)


class _TwoTableRefresher:
    """LocalRefresher lookalike that routes by table name."""

    def __init__(self, masters):
        links, nodes = masters
        self._refreshers = {
            "links": LocalRefresher(links),
            "nodes": LocalRefresher(nodes),
        }

    def refresh(self, table, tids):
        self._refreshers[table.name].refresh(table, tids)
