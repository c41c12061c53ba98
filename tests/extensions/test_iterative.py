"""Tests for the iterative/online refresh executor (§8.2)."""

import pytest

from repro.core.bound import Bound
from repro.core.executor import QueryExecutor
from repro.errors import ConstraintUnsatisfiableError
from repro.extensions.iterative import IterativeRefreshExecutor
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.netmon import paper_example_table, paper_master_table


@pytest.fixture
def iterative(master_links):
    return IterativeRefreshExecutor(LocalRefresher(master_links))


class TestIterativeExecutor:
    def test_meets_constraint(self, cached_links, iterative):
        answer = iterative.run(cached_links, "SUM", "latency", 3.0)
        assert answer.width <= 3 + 1e-9
        assert answer.bound.contains(48)

    def test_online_steps_shrink_monotonically(self, cached_links, iterative):
        widths = [
            step.bound.width
            for step in iterative.steps(cached_links, "SUM", "traffic", 0.0)
        ]
        assert len(widths) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(widths, widths[1:]))
        assert widths[-1] == 0.0

    def test_first_step_is_cached_only(self, cached_links, iterative):
        steps = list(iterative.steps(cached_links, "MIN", "bandwidth", 0.0))
        assert steps[0].refreshed_tid is None
        assert steps[0].cumulative_cost == 0.0

    def test_stops_early_when_lucky(self, cached_links, master_links):
        """Iterative can beat the batch plan: actual values often decide the
        answer before the worst-case refresh set is exhausted."""
        batch_executor = QueryExecutor(
            refresher=LocalRefresher(paper_master_table()), force_exact=True
        )
        batch_answer = batch_executor.execute(
            paper_example_table(), "MIN", "traffic", 10,
            predicate=parse_predicate("bandwidth > 50 AND latency < 10"),
        )
        iterative = IterativeRefreshExecutor(LocalRefresher(master_links))
        online_answer = iterative.run(
            cached_links, "MIN", "traffic", 10,
            predicate=parse_predicate("bandwidth > 50 AND latency < 10"),
        )
        assert online_answer.width <= 10 + 1e-9
        assert len(online_answer.refreshed) <= len(batch_answer.refreshed) + 1

    def test_with_predicate_count(self, cached_links, iterative):
        answer = iterative.run(
            cached_links, "COUNT", None, 0.0, parse_predicate("latency > 10")
        )
        assert answer.bound == Bound.exact(2)

    def test_cost_ordering_respected(self, cached_links, master_links):
        cost = ColumnCostModel("cost")
        iterative = IterativeRefreshExecutor(LocalRefresher(master_links), cost=cost)
        answer = iterative.run(cached_links, "SUM", "traffic", 50.0)
        assert answer.refresh_cost > 0
        assert answer.width <= 50 + 1e-9

    def test_unsatisfiable_raises(self, cached_links):
        """With a refresher that cannot help and an impossible budget over
        an empty aggregation, the executor reports failure."""
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        empty = Table("t", Schema.of(x="bounded"))
        empty.insert({"x": Bound(0, 10)})

        class NoOpRefresher:
            def refresh(self, table, tids):
                pass  # never actually collapses anything

        iterative = IterativeRefreshExecutor(NoOpRefresher())
        with pytest.raises(ConstraintUnsatisfiableError):
            iterative.run(empty, "SUM", "x", 0.5)

    def test_avg_with_predicate(self, cached_links, iterative):
        answer = iterative.run(
            cached_links, "AVG", "latency", 2.0, parse_predicate("traffic > 100")
        )
        assert answer.width <= 2 + 1e-9
        # Master truth: links with traffic > 100 are 2, 3, 4, 6 with
        # latencies 7, 13, 9, 5 -> AVG = 8.5.
        assert answer.bound.contains(8.5)
