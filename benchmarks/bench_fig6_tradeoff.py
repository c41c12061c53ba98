"""Figure 6: the precision-performance tradeoff curve.

The paper fixes epsilon = 0.1 and sweeps the precision constraint R from 0
to 140 over the 90-stock workload, plotting total refresh cost against R.
The curve is the concrete instantiation of Figure 1(b): continuous and
monotonically decreasing — looser constraints always cost less, tighter
ones more, with the extremes being precise mode (R = 0, refresh everything
wide) and imprecise mode (large R, refresh nothing).

We regenerate the series, assert monotonicity and both endpoints, and
benchmark one mid-curve query end to end.
"""

import pytest

from repro.bench.harness import run_sweep
from repro.bench.tables import banner, print_table
from repro.core.executor import QueryExecutor
from repro.core.refresh.base import candidate_costs
from repro.core.refresh.summing import SumChooseRefresh
from repro.replication.local import LocalRefresher
from repro.workloads.stocks import stock_cache_table, stock_master_table

EPSILON = 0.1
R_VALUES = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140]


def _cost_at(stock_days, stock_cost, budget):
    table = stock_cache_table(stock_days)
    chooser = SumChooseRefresh(epsilon=EPSILON)
    plan, _ = chooser.without_predicate(table, "price", budget, stock_cost)
    return {"refresh_cost": plan.total_cost, "tuples": float(len(plan.tids))}


def test_fig6_tradeoff_curve(stock_days, stock_cost):
    sweep = run_sweep(
        name="fig6",
        parameter_name="R",
        parameters=R_VALUES,
        run_once=lambda budget: _cost_at(stock_days, stock_cost, budget),
    )

    banner("Figure 6 — precision (R) vs performance (refresh cost), eps=0.1")
    print_table(
        ["R", "total_refresh_cost", "tuples_refreshed"],
        [
            (p.parameter, p.outputs["refresh_cost"], p.outputs["tuples"])
            for p in sweep.points
        ],
    )
    from repro.bench.ascii_plot import ascii_plot

    print()
    print(
        ascii_plot(
            [p.parameter for p in sweep.points],
            sweep.column("refresh_cost"),
            x_label="precision constraint R",
            y_label="refresh cost",
        )
    )

    # The defining shape: monotonically decreasing cost as R loosens.
    assert sweep.is_monotone_nonincreasing("refresh_cost"), (
        "refresh cost must never rise as the constraint loosens"
    )

    costs = sweep.column("refresh_cost")
    table = stock_cache_table(stock_days)
    row_costs = candidate_costs(table, stock_cost)
    total_cost = row_costs.sum()
    wide_tuples_cost = row_costs[table.columns.width_order("price").keys_by_tid > 0].sum()
    # R = 0: every tuple with a non-degenerate bound must refresh.
    assert costs[0] == pytest.approx(wide_tuples_cost)
    assert costs[0] <= total_cost
    # Largest R: the cached widths alone satisfy the constraint only if
    # their total is below it; otherwise cost is still positive.  Assert
    # the curve spans a meaningful dynamic range (paper's goes 4000 -> 0).
    assert costs[-1] < costs[0] * 0.8, (
        f"the sweep should show a substantial cost drop, got {costs}"
    )


def test_fig6_full_query_guarantee(stock_days, stock_cost):
    """End-to-end: each swept query's final answer meets its constraint."""
    for budget in (0, 40, 100, 140):
        table = stock_cache_table(stock_days)
        executor = QueryExecutor(
            refresher=LocalRefresher(stock_master_table(stock_days)),
            epsilon=EPSILON,
        )
        answer = executor.execute(table, "SUM", "price", budget, cost=stock_cost)
        assert answer.width <= budget + 1e-6
        truth = sum(d.close for d in stock_days)
        assert answer.bound.contains(truth)


def test_fig6_midcurve_query_timing(benchmark, stock_days, stock_cost):
    def run():
        table = stock_cache_table(stock_days)
        executor = QueryExecutor(
            refresher=LocalRefresher(stock_master_table(stock_days)),
            epsilon=EPSILON,
        )
        return executor.execute(table, "SUM", "price", 70, cost=stock_cost)

    answer = benchmark(run)
    assert answer.width <= 70 + 1e-6
