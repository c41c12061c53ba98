"""Tests for bounded shortest paths and continuous queries (§8.1)."""

import itertools
import random

import pytest

from examples.section8.continuous import ContinuousQuery
from examples.section8.paths import (
    PathQueryExecutor,
    bounded_shortest_path,
)
from repro.core.bound import Bound
from repro.errors import ConstraintUnsatisfiableError, TrappError
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table

LINK_SCHEMA = Schema.of(from_node="exact", to_node="exact", latency="bounded")


def make_network(links):
    """links: iterable of (u, v, bound_or_value)."""
    table = Table("links", LINK_SCHEMA)
    for u, v, latency in links:
        table.insert({"from_node": u, "to_node": v, "latency": latency})
    return table


class TestBoundedShortestPath:
    def test_exact_network(self):
        table = make_network(
            [(1, 2, 3.0), (2, 3, 4.0), (1, 3, 10.0)]
        )
        answer = bounded_shortest_path(table, 1, 3)
        assert answer.bound == Bound.exact(7.0)
        assert answer.route == (1, 2, 3)

    def test_bounded_network(self):
        table = make_network(
            [(1, 2, Bound(2, 4)), (2, 3, Bound(3, 5)), (1, 3, Bound(6, 12))]
        )
        answer = bounded_shortest_path(table, 1, 3)
        # Optimistic: min(2+3, 6) = 5; pessimistic: min(4+5, 12) = 9.
        assert answer.bound == Bound(5, 9)
        assert answer.route == (1, 2, 3)

    def test_optimism_and_pessimism_may_disagree_on_route(self):
        table = make_network(
            [(1, 2, Bound(1, 10)), (2, 3, Bound(1, 10)), (1, 3, Bound(5, 6))]
        )
        answer = bounded_shortest_path(table, 1, 3)
        # Optimistic 2, pessimistic best is the direct link at 6.
        assert answer.bound == Bound(2, 6)
        assert answer.route == (1, 3)

    def test_no_path_raises(self):
        table = make_network([(1, 2, 1.0)])
        with pytest.raises(TrappError):
            bounded_shortest_path(table, 2, 1)

    def test_negative_latency_rejected(self):
        table = make_network([(1, 2, Bound(-1, 3))])
        with pytest.raises(TrappError):
            bounded_shortest_path(table, 1, 2)

    def test_containment_exhaustive(self):
        """For every realization of the link bounds, the true shortest-path
        distance lies in the bounded answer."""
        bounds = [Bound(1, 3), Bound(2, 5), Bound(4, 8), Bound(1, 2)]
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        table = make_network([(u, v, b) for (u, v), b in zip(edges, bounds)])
        answer = bounded_shortest_path(table, 1, 4)
        for values in itertools.product(*[(b.lo, b.midpoint, b.hi) for b in bounds]):
            realized = make_network(
                [(u, v, val) for (u, v), val in zip(edges, values)]
            )
            truth = bounded_shortest_path(realized, 1, 4).bound
            assert truth.is_exact
            assert answer.bound.contains(truth.lo), values


class TestPathQueryExecutor:
    def _tables(self, rng):
        edges = []
        cached_links = []
        master_links = []
        nodes = 6
        for u in range(1, nodes):
            for v in range(u + 1, nodes + 1):
                if rng.random() < 0.6 or v == u + 1:
                    value = rng.uniform(1, 10)
                    half = rng.uniform(0, 3)
                    cached_links.append((u, v, Bound(max(0, value - half), value + half)))
                    master_links.append((u, v, value))
        return make_network(cached_links), make_network(master_links)

    def test_meets_constraint_and_contains_truth(self):
        rng = random.Random(3)
        for _ in range(10):
            cached, master = self._tables(rng)
            executor = PathQueryExecutor(LocalRefresher(master))
            answer = executor.execute(cached, 1, 6, max_width=1.0)
            assert answer.width <= 1 + 1e-9
            truth = bounded_shortest_path(master, 1, 6).bound.lo
            assert answer.bound.contains(truth)

    def test_zero_budget_gives_exact_answer(self):
        rng = random.Random(4)
        cached, master = self._tables(rng)
        executor = PathQueryExecutor(LocalRefresher(master))
        answer = executor.execute(cached, 1, 6, max_width=0.0)
        assert answer.bound.is_exact
        truth = bounded_shortest_path(master, 1, 6).bound.lo
        assert answer.bound.lo == pytest.approx(truth)

    def test_loose_budget_refreshes_nothing(self):
        rng = random.Random(5)
        cached, master = self._tables(rng)
        executor = PathQueryExecutor(LocalRefresher(master))
        answer = executor.execute(cached, 1, 6, max_width=1000.0)
        assert not answer.refreshed
        assert answer.refresh_cost == 0.0

    def test_unsatisfiable_when_refresher_is_noop(self):
        cached = make_network([(1, 2, Bound(0, 10))])

        class NoOp:
            def refresh(self, table, tids):
                pass

        executor = PathQueryExecutor(NoOp())
        with pytest.raises(ConstraintUnsatisfiableError):
            executor.execute(cached, 1, 2, max_width=1.0)


class TestContinuousQuery:
    def _setup(self):
        schema = Schema.of(x="bounded")
        cached = Table("t", schema)
        master = Table("t", schema)
        for v in (10.0, 20.0, 30.0):
            cached.insert({"x": Bound(v - 5, v + 5)})
            master.insert({"x": v})
        return cached, master

    def test_first_poll_notifies(self):
        cached, master = self._setup()
        seen = []
        query = ContinuousQuery(
            table=cached, aggregate="SUM", column="x", max_width=100.0,
            refresher=LocalRefresher(master),
        )
        query.subscribe(lambda answer: seen.append(answer.bound))
        query.poll()
        assert len(seen) == 1
        assert query.notifications == 1

    def test_unchanged_answers_suppressed(self):
        cached, master = self._setup()
        seen = []
        query = ContinuousQuery(
            table=cached, aggregate="SUM", column="x", max_width=100.0,
            refresher=LocalRefresher(master), notify_delta=0.5,
        )
        query.subscribe(lambda answer: seen.append(answer.bound))
        query.poll()
        query.poll()
        query.poll()
        assert len(seen) == 1
        assert query.suppressed == 2

    def test_visible_change_notifies_again(self):
        cached, master = self._setup()
        seen = []
        query = ContinuousQuery(
            table=cached, aggregate="SUM", column="x", max_width=100.0,
            refresher=LocalRefresher(master), notify_delta=0.5,
        )
        query.subscribe(lambda answer: seen.append(answer.bound))
        query.poll()
        cached.update_value(1, "x", Bound(100, 110))  # big visible move
        query.poll()
        assert len(seen) == 2

    def test_constraint_enforced_via_refresh(self):
        cached, master = self._setup()
        query = ContinuousQuery(
            table=cached, aggregate="SUM", column="x", max_width=1.0,
            refresher=LocalRefresher(master),
        )
        answer = query.poll()
        assert answer.width <= 1 + 1e-9
        assert query.total_refreshes > 0
        assert answer.bound.contains(60.0)
