"""Property: CHOOSE_REFRESH plans are optimal (or provably near-optimal).

The paper's optimality claim for CHOOSE_REFRESH.  For small instances we enumerate every subset of
tuples, keep those whose refresh guarantees the constraint in the worst
case, and compare the cheapest feasible subset's cost with the plan's:

* MIN, MAX, COUNT — the plan must match the optimum exactly;
* SUM with ``force_exact`` — exact optimum (integer costs);
* SUM via Ibarra–Kim — within ``(1 - eps)`` of the kept-profit optimum,
  which translates to the refresh-cost bound checked here.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.core.aggregates import MAX, MIN
from repro.core.bound import Bound
from repro.core.refresh import (
    CHOOSE_COUNT,
    CHOOSE_MAX,
    CHOOSE_MIN,
    SumChooseRefresh,
)
from repro.predicates.ast import ColumnRef, Comparison, Literal
from repro.storage.row import Row
from tests.protocol import bound_of, classified, plan_of, table_of

# All coordinates live on a dyadic grid (multiples of 1/64), so every
# subtraction and comparison in both the optimizers and the brute-force
# oracle is exact in binary floating point: the tests certify the
# combinatorial logic without ulp-level false positives.
grid = st.integers(min_value=-640, max_value=640).map(lambda k: k / 64.0)
grid_widths = st.integers(min_value=0, max_value=640).map(lambda k: k / 64.0)
budgets = st.integers(min_value=0, max_value=1920).map(lambda k: k / 64.0)
int_costs = st.integers(min_value=1, max_value=10)


@st.composite
def small_rows_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for i in range(n):
        lo = draw(grid)
        rows.append(Row(i + 1, {"x": Bound(lo, lo + draw(grid_widths))}))
    return rows


small_rows = small_rows_strategy()


def _worst_case_width_min(rows, refreshed_tids):
    """Worst case over realizations: every refreshed value at its hi."""
    collapsed = [
        Row(r.tid, {"x": Bound.exact(r.bound("x").hi)})
        if r.tid in refreshed_tids
        else r
        for r in rows
    ]
    return bound_of(MIN, table_of(collapsed), "x").width


def _worst_case_width_max(rows, refreshed_tids):
    collapsed = [
        Row(r.tid, {"x": Bound.exact(r.bound("x").lo)})
        if r.tid in refreshed_tids
        else r
        for r in rows
    ]
    return bound_of(MAX, table_of(collapsed), "x").width


def _cheapest_feasible(rows, budget, costs, worst_case_width):
    best = None
    for k in range(len(rows) + 1):
        for combo in itertools.combinations([r.tid for r in rows], k):
            if worst_case_width(rows, set(combo)) <= budget:
                cost = sum(costs[t] for t in combo)
                if best is None or cost < best:
                    best = cost
    return best


@settings(max_examples=40, deadline=None)
@given(small_rows, budgets, st.data())
def test_min_plan_is_optimal(rows, budget, data):
    costs = {r.tid: data.draw(int_costs, label=f"c{r.tid}") for r in rows}
    plan = plan_of(CHOOSE_MIN, table_of(rows), "x", budget, lambda r: costs[r.tid])
    optimum = _cheapest_feasible(rows, budget, costs, _worst_case_width_min)
    assert optimum is not None
    assert plan.total_cost <= optimum + 1e-9
    # And the plan itself is feasible:
    assert _worst_case_width_min(rows, set(plan.tids)) <= budget


@settings(max_examples=40, deadline=None)
@given(small_rows, budgets, st.data())
def test_max_plan_is_optimal(rows, budget, data):
    costs = {r.tid: data.draw(int_costs, label=f"c{r.tid}") for r in rows}
    plan = plan_of(CHOOSE_MAX, table_of(rows), "x", budget, lambda r: costs[r.tid])
    optimum = _cheapest_feasible(rows, budget, costs, _worst_case_width_max)
    assert optimum is not None
    assert plan.total_cost <= optimum + 1e-9
    assert _worst_case_width_max(rows, set(plan.tids)) <= budget


@settings(max_examples=40, deadline=None)
@given(small_rows, budgets, st.data())
def test_sum_exact_plan_is_optimal(rows, budget, data):
    costs = {r.tid: float(data.draw(int_costs, label=f"c{r.tid}")) for r in rows}
    chooser = SumChooseRefresh(force_exact=True)
    plan = plan_of(chooser, table_of(rows), "x", budget, lambda r: costs[r.tid])

    # SUM's post-refresh width is realization-independent: the total width
    # of unrefreshed bounds.
    def width_after(tids):
        return sum(r.bound("x").width for r in rows if r.tid not in tids)

    best = None
    for k in range(len(rows) + 1):
        for combo in itertools.combinations([r.tid for r in rows], k):
            if width_after(set(combo)) <= budget:
                cost = sum(costs[t] for t in combo)
                if best is None or cost < best:
                    best = cost
    assert best is not None
    assert plan.total_cost <= best + 1e-6
    assert width_after(set(plan.tids)) <= budget


@settings(max_examples=40, deadline=None)
@given(small_rows, budgets, st.data())
def test_sum_approx_plan_within_epsilon(rows, budget, data):
    epsilon = 0.1
    costs = {r.tid: float(data.draw(int_costs, label=f"c{r.tid}")) for r in rows}
    chooser = SumChooseRefresh(epsilon=epsilon)
    # Force the approximation path by making one cost fractional.
    costs[rows[0].tid] += 0.5
    plan = plan_of(chooser, table_of(rows), "x", budget, lambda r: costs[r.tid])

    total_cost = sum(costs.values())

    def width_after(tids):
        return sum(r.bound("x").width for r in rows if r.tid not in tids)

    best_kept = None
    for k in range(len(rows) + 1):
        for combo in itertools.combinations([r.tid for r in rows], k):
            if width_after(set(combo)) <= budget:
                kept = total_cost - sum(costs[t] for t in combo)
                if best_kept is None or kept > best_kept:
                    best_kept = kept
    assert best_kept is not None
    kept_by_plan = total_cost - plan.total_cost
    assert kept_by_plan >= (1 - epsilon) * best_kept - 1e-6
    assert width_after(set(plan.tids)) <= budget


@settings(max_examples=40, deadline=None)
@given(small_rows, st.floats(min_value=-20, max_value=20, allow_nan=False),
       budgets, st.data())
def test_count_plan_is_optimal(rows, threshold, budget, data):
    costs = {r.tid: float(data.draw(int_costs, label=f"c{r.tid}")) for r in rows}
    predicate = Comparison(ColumnRef("x"), ">", Literal(threshold))
    table = table_of(rows)
    pair = classified(table, predicate)
    plan = plan_of(
        CHOOSE_COUNT, table, None, budget, lambda r: costs[r.tid], pair
    )
    # Any refresh of a T? tuple removes it from T?; the optimum refreshes
    # the ceil(|T?| - R) cheapest T? tuples.
    maybe = table.columns.sorted_tids()[pair[1]].tolist()
    need = max(0, math.ceil(len(maybe) - budget))
    cheapest = sorted(costs[tid] for tid in maybe)[:need]
    assert plan.total_cost <= sum(cheapest) + 1e-9
    assert len(plan.tids) == need
