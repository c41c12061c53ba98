"""Property: a join over exact columns plans as one §5 batch, and the
batch holds the paper's contract at no more cost than the greedy rounds.

When the join condition reads no bounded column, no joined tuple is in
T?, and ``repro.joins.refresh`` plans each round as one knapsack (SUM,
AVG) or forced set (MIN, MAX) over the base tuples of the table owning
the aggregated column, each weighted by its fan-out.  Hypothesis draws
such joins — fan-outs from 0 to 6 on a three-value key, the cross
product, extra exact conditions, exact and wide cells, uniform,
integral and fractional costs — and checks:

* every answer holds the rule of ``tests/oracle/contract.py``: the
  ``math.fsum`` truth over the master tables lies inside the bound, and
  the width meets R (nothing here is degraded);
* a serial driver sees one plan; one widened bound between the yield and
  the send makes it two, the second a re-plan;
* with integral costs (the exact DP) a SUM or AVG plan costs no more
  than the greedy one-tuple heuristic's rounds on the same draw
  (``tests/oracle/row_join.py``), and with uniform costs it refreshes no
  more tuples.  MIN and MAX are left out of that comparison: their
  forced set guarantees R for *every* master value, while a one-tuple
  sequence that sees the values it refreshes can stop early.

Joins whose condition does read a bounded column, and MEDIAN, keep the
greedy rounds; ``tests/property/test_join_columnar.py`` drives those in
lock step with the row oracle.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bound import Bound
from repro.core.refresh.base import uniform_cost
from repro.errors import ConstraintUnsatisfiableError
from repro.joins.refresh import join_steps
from repro.predicates.ast import And, ColumnRef, Comparison, Literal, Not, Or
from repro.replication import ColumnCostModel
from tests.oracle.row_eval import Trilean
from tests.oracle.row_join import join_rows, row_join_steps
from tests.property.test_join_columnar import (
    KEY_EQUALITIES,
    instances,
    quarters,
    reads_bounded,
    refresh_from,
    tags,
)
from tests.protocol import row_cost

COSTS = {
    "uniform": uniform_cost,
    "integral": ColumnCostModel("c"),  # 1, 2 or 3: SUM and AVG plan by exact DP
    "fractional": lambda row: 0.5 + (row.tid % 3) * 0.75,
}
AGGREGATES = ["SUM", "AVG", "MIN", "MAX", "COUNT"]
COLUMNS = [("a", "x"), ("b", "y"), ("a", "v"), ("b", "v")]
BUDGETS = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]


def exact_terms():
    columns = st.sampled_from(
        [ColumnRef("k", "a"), ColumnRef("k", "b"), ColumnRef("id"), ColumnRef("c")]
    )
    return st.one_of(columns, quarters.map(Literal))


@st.composite
def exact_leaves(draw):
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(st.sampled_from(KEY_EQUALITIES))
    if kind == 1:
        return Comparison(
            ColumnRef("tag", draw(st.sampled_from([None, "a", "b"]))),
            draw(st.sampled_from(["=", "!="])),
            Literal(draw(tags)),
        )
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    return Comparison(draw(exact_terms()), op, draw(exact_terms()))


@st.composite
def exact_conditions(draw, depth=2):
    """Join conditions that read exact columns only."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(exact_leaves())
    combinator = draw(st.sampled_from(["and", "and", "or", "not"]))
    if combinator == "not":
        return Not(draw(exact_conditions(depth=depth - 1)))
    left = draw(exact_conditions(depth=depth - 1))
    right = draw(exact_conditions(depth=depth - 1))
    return And(left, right) if combinator == "and" else Or(left, right)


class Masters:
    """The refresh provider: collapse base tuples onto the masters."""

    def __init__(self, tables, masters) -> None:
        self.tables, self.masters = tables, masters

    def refresh(self, table, tids) -> None:
        refresh_from(self.masters, self.tables, table.name, tids)


def serial(steps, refresher, between=None):
    """Drive ``steps`` to its answer; returns ``(answer, requests)``.
    ``between(request)`` runs after each refresh, before the send."""
    requests = []
    try:
        request = next(steps)
        while True:
            requests.append(request)
            refresher.refresh(request.table, request.plan.tids)
            if between is not None:
                between(request)
            request = steps.send(request.plan)
    except StopIteration as stop:
        return stop.value, requests


def joined_masters(masters, condition):
    return [jt for jt in join_rows(masters, condition) if jt.verdict is Trilean.TRUE]


def assert_empty_join(masters, aggregate, condition) -> None:
    """An order statistic or an average over no joined tuple is
    [-inf, inf] whatever is refreshed: the only unsatisfiable draws."""
    assert aggregate in ("AVG", "MIN", "MAX")
    assert not joined_masters(masters, condition)


def truth(masters, aggregate, column, condition) -> float:
    """The exact answer over the master tables, ``math.fsum`` for sums."""
    joined = joined_masters(masters, condition)
    if aggregate == "COUNT":
        return float(len(joined))
    name, attribute = column
    owner = masters[0] if name == "a" else masters[1]
    values = [owner.row(jt.base[name]).number(attribute) for jt in joined]
    if aggregate == "SUM":
        return math.fsum(values)
    if aggregate == "AVG":
        return math.fsum(values) / len(values)
    # The empty-set convention: MIN of nothing is +inf, MAX -inf.
    if aggregate == "MIN":
        return min(values, default=math.inf)
    return max(values, default=-math.inf)


def run(steps_of, data, aggregate, column, budget, condition, cost, between=None):
    tables, masters = data
    own = tuple(table.copy() for table in tables)
    steps = steps_of(own, aggregate, column, budget, condition, cost)
    return (own, *serial(steps, Masters(own, masters), between))


class TestBatchRoute:
    @given(
        data=instances(),
        condition=st.one_of(st.none(), exact_conditions()),
        aggregate=st.sampled_from(AGGREGATES),
        column=st.sampled_from(COLUMNS),
        budget=st.sampled_from(BUDGETS),
        cost=st.sampled_from(sorted(COSTS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_plan_holds_the_contract_at_no_more_cost(
        self, data, condition, aggregate, column, budget, cost
    ):
        tables, masters = data
        assert not reads_bounded(tables, condition)
        column = None if aggregate == "COUNT" else column
        query = (aggregate, column, budget, condition)
        try:
            own, answer, requests = run(join_steps, data, *query, COSTS[cost])
        except ConstraintUnsatisfiableError:
            assert_empty_join(masters, aggregate, condition)
            return
        exact = truth(masters, aggregate, column, condition)
        assert answer.bound.contains(exact), (answer.bound, exact)
        assert answer.meets(budget) and not answer.degraded
        assert len(requests) <= (0 if aggregate == "COUNT" else 1)
        owner = 0 if column is None or column[0] == "a" else 1
        assert all(r.table is own[owner] and not r.replan for r in requests)

        if aggregate not in ("SUM", "AVG") or cost == "fractional":
            return
        _, greedy, _ = run(
            row_join_steps, data, *query, row_cost(COSTS[cost])
        )
        assert answer.refresh_cost <= greedy.refresh_cost
        if cost == "uniform":
            assert len(answer.refreshed) <= len(greedy.refreshed)

    @given(
        data=instances(),
        condition=st.one_of(st.none(), exact_conditions()),
        aggregate=st.sampled_from(["SUM", "AVG", "MIN", "MAX"]),
        column=st.sampled_from(COLUMNS),
        budget=st.sampled_from(BUDGETS),
        widened=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_bound_widened_under_the_plan_costs_one_replan(
        self, data, condition, aggregate, column, budget, widened
    ):
        """Between the first yield and its send a sync widens one base
        tuple of the owning table (its master stays inside): the recheck
        may miss, and one re-plan then answers."""
        tables, masters = data
        k = 0 if column[0] == "a" else 1

        def widen(request):
            if request.replan:
                return
            table = request.table
            tid = table.tids()[widened % len(table)]
            master = masters[k].row(tid).number(column[1])
            table.update_value(tid, column[1], Bound(master - 4.0, master + 4.0))

        query = (aggregate, column, budget, condition)
        try:
            _, answer, requests = run(
                join_steps, data, *query, uniform_cost, widen
            )
        except ConstraintUnsatisfiableError:
            assert_empty_join(masters, aggregate, condition)
            return
        assert len(requests) <= 2
        assert [r.replan for r in requests] == [False, True][: len(requests)]
        assert answer.bound.contains(truth(masters, aggregate, column, condition))
        assert answer.meets(budget) and not answer.degraded
