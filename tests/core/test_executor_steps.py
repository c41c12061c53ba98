"""The executor's resumable generator API."""

from __future__ import annotations

import pytest

from repro.core.executor import PlannedRefresh, QueryExecutor
from repro.core.refresh.base import RefreshPlan
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from tests.oracle.row_executor import RowQueryExecutor
from tests.protocol import row_cost


def drive(steps, apply):
    """Run an execute_steps generator with ``apply(request) -> plan``."""
    try:
        request = next(steps)
        while True:
            request = steps.send(apply(request))
    except StopIteration as stop:
        return stop.value


# ----------------------------------------------------------------------
def test_cache_answerable_query_never_yields(cached_links):
    executor = QueryExecutor()
    steps = executor.execute_steps(cached_links, "SUM", "traffic", 1000.0)
    with pytest.raises(StopIteration) as stop:
        next(steps)
    answer = stop.value.value
    assert answer.meets(1000.0)
    assert not answer.refreshed


def test_yielded_plan_carries_sum_rebatch_metadata(cached_links, master_links):
    cost = ColumnCostModel("cost")
    executor = QueryExecutor(refresher=LocalRefresher(master_links))
    steps = executor.execute_steps(cached_links, "SUM", "traffic", 10.0, cost=cost)
    request = next(steps)
    assert isinstance(request, PlannedRefresh)
    assert request.aggregate == "SUM"
    assert request.max_width == 10.0
    assert request.can_rebatch
    # The harvested vectors, by reference: widths are the knapsack
    # weights, each tuple's current bound width.
    widths = dict(zip(request.candidates.tids.tolist(), request.candidates.widths))
    assert set(request.plan.tids) <= set(widths)
    for row in cached_links.rows():
        assert widths[row.tid] == pytest.approx(row.bound("traffic").width)
    removed = sum(widths[tid] for tid in request.plan.tids)
    assert removed >= request.required_width
    steps.close()

    # The row oracle states the same metadata.
    oracle = next(
        RowQueryExecutor().execute_steps(
            cached_links, "SUM", "traffic", 10.0, cost=row_cost(cost)
        )
    )
    assert dict(zip(oracle.candidates.tids.tolist(), oracle.candidates.widths)) == (
        pytest.approx(widths)
    )
    assert oracle.required_width == pytest.approx(request.required_width)


def test_min_queries_carry_no_rebatch_metadata(cached_links, master_links):
    executor = QueryExecutor(refresher=LocalRefresher(master_links))
    steps = executor.execute_steps(cached_links, "MIN", "latency", 0.5)
    request = next(steps)
    assert not request.can_rebatch
    steps.close()


def test_driver_controls_the_refresh(cached_links, master_links):
    """The generator driver applies the refresh and reports its cost."""
    refresher = LocalRefresher(master_links)
    executor = QueryExecutor()  # no refresher: the driver owns refreshes

    def apply(request: PlannedRefresh) -> RefreshPlan:
        refresher.refresh(request.table, request.plan.tids)
        return RefreshPlan(request.plan.tids, 123.0)

    steps = executor.execute_steps(cached_links, "SUM", "traffic", 10.0)
    answer = drive(steps, apply)
    assert answer.meets(10.0)
    assert answer.refresh_cost == 123.0
    assert answer.refreshed
    assert len(answer.refreshed) == refresher.refresh_count


def test_superset_refresh_keeps_guarantee(cached_links, master_links):
    """Refreshing more than planned (a coalesced batch) stays sound,
    including for the row oracle's incremental reclassification."""
    predicate = parse_predicate("traffic > 100")
    all_tids = {row.tid for row in cached_links.rows()}
    for executor in (QueryExecutor(), RowQueryExecutor()):
        table = cached_links.copy()
        refresher = LocalRefresher(master_links)

        def apply(request: PlannedRefresh) -> RefreshPlan:
            refresher.refresh(request.table, all_tids)  # the whole table
            return RefreshPlan(frozenset(all_tids), 6.0)

        steps = executor.execute_steps(table, "SUM", "traffic", 10.0, predicate)
        answer = drive(steps, apply)
        assert answer.meets(10.0)
        assert answer.refreshed == frozenset(all_tids)
        # With everything collapsed the answer is exact.
        assert answer.is_exact


def test_execute_and_steps_agree(cached_links, master_links):
    classic = QueryExecutor(refresher=LocalRefresher(master_links)).execute(
        cached_links.copy(), "SUM", "traffic", 10.0
    )
    refresher = LocalRefresher(master_links)
    steps = QueryExecutor().execute_steps(cached_links.copy(), "SUM", "traffic", 10.0)
    stepped = drive(
        steps,
        lambda request: (
            refresher.refresh(request.table, request.plan.tids) or request.plan
        ),
    )
    assert classic.bound == stepped.bound
    assert classic.refreshed == stepped.refreshed
