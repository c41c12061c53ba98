"""Figure 5: CHOOSE_REFRESH time and refresh cost versus epsilon.

The paper fixes a SUM query with precision constraint R = 100 over 90
volatile stock prices (bounds = day low/high, refresh costs uniform in
[1, 10]) and sweeps the Ibarra-Kim approximation parameter epsilon from
0.1 down toward 0.  Two curves result:

* CHOOSE_REFRESH running time grows ~quadratically as epsilon shrinks
  (the DP dimension is O(n / epsilon));
* total refresh cost of the selected plan decreases only slightly — by
  epsilon = 0.1 the plan is already "very close to optimal".

The paper concludes epsilon below 0.1 is rarely worth the optimizer time.
We regenerate both series, assert both shapes, and benchmark the
epsilon = 0.1 operating point.
"""

import pytest

from repro.bench.harness import run_sweep
from repro.bench.tables import banner, print_table
from repro.core.refresh.summing import SumChooseRefresh

R = 100.0
EPSILONS = [0.1, 0.08, 0.06, 0.04, 0.02, 0.01]


def _plan_cost(stock_cache, stock_cost, epsilon):
    chooser = SumChooseRefresh(epsilon=epsilon, force_approx=True)
    plan, _ = chooser.without_predicate(stock_cache, "price", R, stock_cost)
    return {"refresh_cost": plan.total_cost, "tuples": float(len(plan.tids))}


def test_fig5_shapes(stock_cache, stock_cost):
    """Regenerate Figure 5 and check both curve shapes."""
    sweep = run_sweep(
        name="fig5",
        parameter_name="epsilon",
        parameters=EPSILONS,
        run_once=lambda eps: _plan_cost(stock_cache, stock_cost, eps),
        repeats=1,
    )

    banner("Figure 5 — CHOOSE_REFRESH(SUM) time and refresh cost vs epsilon (R=100)")
    print_table(
        ["epsilon", "choose_refresh_seconds", "total_refresh_cost", "tuples_refreshed"],
        [
            (p.parameter, f"{p.elapsed_seconds:.5f}", p.outputs["refresh_cost"],
             p.outputs["tuples"])
            for p in sweep.points
        ],
    )

    times = [p.elapsed_seconds for p in sweep.points]
    costs = [p.outputs["refresh_cost"] for p in sweep.points]

    # Shape 1: smaller epsilon costs more optimizer time.  The paper shows
    # a quadratic blow-up; we assert a strong monotone growth from the
    # 0.1 operating point to the 0.01 extreme.
    assert times[-1] > times[0] * 4, (
        f"optimizer time should blow up as epsilon shrinks: {times}"
    )

    # Shape 2: the refresh cost improves only marginally below 0.1.
    exact, _ = SumChooseRefresh(force_exact=True).without_predicate(
        stock_cache, "price", R, stock_cost
    )
    assert costs[0] <= exact.total_cost * 1.15, (
        "epsilon=0.1 should already be within ~15% of optimal "
        f"(got {costs[0]} vs optimal {exact.total_cost})"
    )
    assert min(costs) >= exact.total_cost - 1e-9  # never beats optimal

    # Every plan guarantees the constraint.
    for eps in EPSILONS:
        chooser = SumChooseRefresh(epsilon=eps, force_approx=True)
        plan, _ = chooser.without_predicate(stock_cache, "price", R, stock_cost)
        kept_width = sum(
            row.bound("price").width
            for row in stock_cache.rows()
            if row.tid not in plan.tids
        )
        assert kept_width <= R + 1e-6


@pytest.mark.parametrize("epsilon", [0.1, 0.02])
def test_fig5_choose_refresh_timing(benchmark, stock_cache, stock_cost, epsilon):
    """pytest-benchmark timing of the two interesting epsilon points."""
    chooser = SumChooseRefresh(epsilon=epsilon, force_approx=True)
    plan, _ = benchmark.pedantic(
        lambda: chooser.without_predicate(stock_cache, "price", R, stock_cost),
        rounds=3,
        iterations=1,
    )
    assert plan.tids
