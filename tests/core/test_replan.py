"""Plan again only when something moved: the edges of the replan rule.

A recheck that misses R with every planned tuple reached plans again
(``repro.core.executor.refresh_steps``, the loop every statement class
runs); ``tests/property/test_replan_contract.py`` shows that closes the
plan→recheck race.  The same rule would hide a planner whose plans fall
short, so:

* with nothing between a yield and its ``send`` — a serial driver — no
  statement ever yields a re-plan: one plan per statement (per group);
* one-tuple rounds (the §7 join, §8.2's iterative strategy) are never
  re-plans, and never offer a tuple twice;
* a round with tuples unreached is answered degraded, never re-planned;
* a recheck that keeps missing stops at :data:`MAX_PLAN_ROUNDS`, loudly.
"""

from __future__ import annotations

import pytest

import repro.extensions.median_spec  # noqa: F401  (registers MEDIAN)
from repro.core.aggregates import registry
from repro.core.executor import MAX_PLAN_ROUNDS, QueryExecutor, iterative_steps
from repro.core.refresh.base import RefreshPlan, uniform_cost
from repro.errors import ConstraintUnsatisfiableError
from repro.extensions.groupby import grouped_query_steps
from repro.extensions.topn import top_n_steps
from repro.joins.refresh import JoinRefreshHeuristic
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.workloads.netmon import paper_example_table, paper_master_table

PREDICATES = [None, "latency > 8", "bandwidth < 60 AND latency > 3", "cost >= 4"]
BUDGETS = [0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 40.0]
COSTS = {"uniform": uniform_cost, "column": ColumnCostModel("cost")}


def serial(steps):
    """Drive ``steps`` over Figure 2, refreshing each plan as it comes;
    returns the answer and every yielded request."""
    refresher = LocalRefresher(paper_master_table())
    requests = []
    try:
        request = next(steps)
        while True:
            requests.append(request)
            refresher.refresh(request.table, request.plan.tids)
            request = steps.send(request.plan)
    except StopIteration as stop:
        return stop.value, requests


def cases(shapes):
    return [
        pytest.param(
            shape, aggregate, predicate, cost,
            id=f"{shape}-{aggregate}-{predicate}-{cost}",
        )
        for shape in shapes
        for aggregate in sorted(registry)
        for predicate in PREDICATES
        for cost in sorted(COSTS)
        # A predicate empties some group, and an order statistic or an
        # average over no tuples is [-inf, inf] whatever is refreshed.
        if shape == "query" or predicate is None or aggregate in ("SUM", "COUNT")
    ]


@pytest.mark.parametrize(
    "shape, aggregate, predicate, cost", cases(["query", "group_by"])
)
def test_a_serial_driver_never_sees_a_replan(shape, aggregate, predicate, cost):
    column = "traffic" if registry[aggregate].needs_column else None
    parsed = parse_predicate(predicate) if predicate else None
    for budget in BUDGETS:
        cached = paper_example_table()
        if shape == "query":
            steps = QueryExecutor().execute_steps(
                cached, aggregate, column, budget, parsed, COSTS[cost]
            )
            most = 1
        else:
            steps = grouped_query_steps(
                cached, ["from_node"], aggregate, column, budget, parsed, COSTS[cost]
            )
            most = len({row["from_node"] for row in cached.rows()})
        answer, requests = serial(steps)
        context = f"WITHIN {budget}"
        assert not [r for r in requests if r.replan], context
        assert len(requests) <= most, context
        assert answer.meets(budget) and not answer.degraded, context


@pytest.mark.parametrize("column", ["latency", "bandwidth", "traffic"])
def test_a_serial_top_n_plans_once(column):
    for n in (1, 2, 3, 6):
        for budget in BUDGETS:
            answer, requests = serial(
                top_n_steps(paper_example_table(), n, column, budget)
            )
            assert len(requests) <= 1 and not [r for r in requests if r.replan]
            assert answer.meets(budget)


def join_steps(links, aggregate="SUM", column="traffic", budget=5.0):
    """``links ⋈ nodes`` on ``to_node = node``; the node loads are exact,
    so every round refreshes a link."""
    nodes = Table("nodes", Schema.of(node="exact", load="bounded"))
    for node in range(1, 7):
        nodes.insert({"node": node, "load": 10.0 * node})
    column = None if column is None else ("links", column)
    return JoinRefreshHeuristic([links, nodes], None).execute_steps(
        aggregate, column, budget, parse_predicate("to_node = node")
    )


@pytest.mark.parametrize("aggregate", sorted(registry))
@pytest.mark.parametrize("shape", ["iterative", "join"])
def test_one_tuple_rounds_are_never_replans(shape, aggregate):
    column = "traffic" if registry[aggregate].needs_column else None
    for budget in BUDGETS:
        if shape == "iterative":
            steps = iterative_steps(paper_example_table(), aggregate, column, budget)
        else:
            steps = join_steps(paper_example_table(), aggregate, column, budget)
        answer, requests = serial(steps)
        assert not [r for r in requests if r.replan]
        tids = [tid for r in requests for tid in r.plan.tids]
        assert len(tids) == len(set(tids)) == len(requests)
        assert answer.meets(budget) and not answer.degraded


STATEMENTS = {
    "query": lambda table: QueryExecutor().execute_steps(table, "SUM", "traffic", 5.0),
    "group_by": lambda table: grouped_query_steps(
        table, ["from_node"], "SUM", "traffic", 5.0
    ),
    "top_n": lambda table: top_n_steps(table, 2, "traffic", 0.5),
}


@pytest.mark.parametrize("shape", sorted(STATEMENTS) + ["join"])
def test_a_round_with_tuples_unreached_is_answered_degraded(shape):
    """Nothing is refreshed and the source is named unreachable: the
    first group (or the statement) is answered degraded at once."""
    table = paper_example_table()
    steps = join_steps(table) if shape == "join" else STATEMENTS[shape](table)
    request = next(steps)
    failed = RefreshPlan(frozenset(), 0.0, request.plan.tids, ("net",))
    try:
        while True:
            request = steps.send(failed)
            assert not request.replan
            failed = RefreshPlan(frozenset(), 0.0, request.plan.tids, ("net",))
    except StopIteration as stop:
        answer = stop.value
    assert answer.degraded and answer.unreachable_sources == ("net",)
    assert not answer.refreshed and answer.bound == answer.initial_bound


@pytest.mark.parametrize("shape", sorted(STATEMENTS))
def test_a_recheck_that_keeps_missing_stops_at_the_cap(shape):
    """Every round 'lands' and nothing collapses — the master moving on
    every round looks the same to the generator.  (A join round is no
    re-plan: it never offers a tuple twice.)"""
    steps = STATEMENTS[shape](paper_example_table())
    request = next(steps)
    rounds = 1
    with pytest.raises(
        ConstraintUnsatisfiableError, match=f"after {MAX_PLAN_ROUNDS} refresh round"
    ):
        while True:
            request = steps.send(request.plan)
            assert request.replan
            rounds += 1
    assert rounds == MAX_PLAN_ROUNDS
