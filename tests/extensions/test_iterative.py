"""Tests for the iterative/online refresh strategy (§8.2)."""

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.bound import Bound
from repro.core.executor import (
    QueryExecutor,
    bounded_answer,
    drive_steps,
    iterative_steps,
)
from repro.errors import ConstraintUnsatisfiableError
from repro.predicates.ast import TruePredicate
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.netmon import paper_example_table, paper_master_table


@pytest.fixture
def iterate(master_links):
    def run(table, *arguments, **options):
        steps = iterative_steps(table, *arguments, **options)
        return drive_steps(steps, LocalRefresher(master_links))

    return run


def online(table, master, aggregate, column, budget):
    """Drive the rounds by hand: every plan, and the bound after each
    refresh (the cached-only one first), as a UI would show it."""
    spec = get_aggregate(aggregate)
    refresher = LocalRefresher(master)
    steps = iterative_steps(table, aggregate, column, budget)
    plans, widths = [], [bounded_answer(table, spec, column, TruePredicate())[0].width]
    try:
        request = next(steps)
        while True:
            plans.append(request.plan)
            refresher.refresh(table, request.plan.tids)
            widths.append(bounded_answer(table, spec, column, TruePredicate())[0].width)
            request = steps.send(request.plan)
    except StopIteration as stop:
        return plans, widths, stop.value


class TestIterativeExecutor:
    def test_meets_constraint(self, cached_links, iterate):
        answer = iterate(cached_links, "SUM", "latency", 3.0)
        assert answer.width <= 3 + 1e-9
        assert answer.bound.contains(48)

    def test_online_steps_shrink_monotonically(self, cached_links, master_links):
        plans, widths, answer = online(cached_links, master_links, "SUM", "traffic", 0.0)
        assert len(plans) >= 2 and all(len(plan.tids) == 1 for plan in plans)
        assert all(b <= a + 1e-9 for a, b in zip(widths, widths[1:]))
        assert widths[-1] == answer.bound.width == 0.0
        assert answer.refreshed == frozenset().union(*(p.tids for p in plans))

    def test_first_step_is_cached_only(self, cached_links, master_links):
        plans, widths, answer = online(cached_links, master_links, "MIN", "bandwidth", 0.0)
        assert answer.initial_bound.width == widths[0]
        assert answer.initial_bound == bounded_answer(
            paper_example_table(), get_aggregate("MIN"), "bandwidth", TruePredicate()
        )[0]
        assert answer.refresh_cost == sum(plan.total_cost for plan in plans)

    def test_stops_early_when_lucky(self, cached_links, iterate):
        """Iterative can beat the batch plan: actual values often decide the
        answer before the worst-case refresh set is exhausted."""
        predicate = parse_predicate("bandwidth > 50 AND latency < 10")
        batch_executor = QueryExecutor(
            refresher=LocalRefresher(paper_master_table()), force_exact=True
        )
        batch_answer = batch_executor.execute(
            paper_example_table(), "MIN", "traffic", 10, predicate=predicate
        )
        online_answer = iterate(cached_links, "MIN", "traffic", 10, predicate)
        assert online_answer.width <= 10 + 1e-9
        assert len(online_answer.refreshed) <= len(batch_answer.refreshed) + 1

    def test_with_predicate_count(self, cached_links, iterate):
        answer = iterate(
            cached_links, "COUNT", None, 0.0, parse_predicate("latency > 10")
        )
        assert answer.bound == Bound.exact(2)

    def test_cost_ordering_respected(self, cached_links, iterate):
        answer = iterate(
            cached_links, "SUM", "traffic", 50.0, cost=ColumnCostModel("cost")
        )
        assert answer.refresh_cost > 0
        assert answer.width <= 50 + 1e-9

    def test_unsatisfiable_raises(self):
        """With a refresher that cannot help, every tuple is offered once
        and the loop reports failure."""
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(0, 10)})

        class NoOpRefresher:
            def refresh(self, table, tids):
                pass  # never actually collapses anything

        with pytest.raises(ConstraintUnsatisfiableError):
            drive_steps(iterative_steps(table, "SUM", "x", 0.5), NoOpRefresher())

    def test_avg_with_predicate(self, cached_links, iterate):
        answer = iterate(
            cached_links, "AVG", "latency", 2.0, parse_predicate("traffic > 100")
        )
        assert answer.width <= 2 + 1e-9
        # Master truth: links with traffic > 100 are 2, 3, 4, 6 with
        # latencies 7, 13, 9, 5 -> AVG = 8.5.
        assert answer.bound.contains(8.5)
