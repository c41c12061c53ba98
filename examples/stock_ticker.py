"""Portfolio analytics over cached stock quotes (the paper's §5.2.1 data).

Synthesizes the 90-ticker volatile trading day used by the paper's
experiments, caches each ticker's [day-low, day-high] as its price bound,
and answers portfolio-style aggregation queries at a range of precision
constraints, demonstrating how much cheaper approximate answers are.

Also shows the knapsack approximation knob: the same AVG plan from
choosers built at several epsilon values.

Run:  python examples/stock_ticker.py
"""

import math

from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.core.refresh import AvgChooseRefresh
from repro.extensions.topn import top_n_steps
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from section8.stocks import (
    stock_cache_table,
    stock_master_table,
    volatile_stock_day,
)


def main():
    days = volatile_stock_day(n_stocks=90)
    cost = ColumnCostModel("cost")
    total_cost_possible = sum(d.cost for d in days)

    print("90 synthetic tickers, one volatile day")
    print(
        f"mean day range: "
        f"{sum(d.width for d in days) / len(days):.2f} "
        f"(mean close {sum(d.close for d in days) / len(days):.2f})"
    )

    print("\nSUM(price) — a portfolio NAV — at decreasing R:")
    print(f"  {'R':>8}  {'answer':>22}  {'refreshed':>9}  {'cost':>6}  {'% of full':>9}")
    for budget in (500, 200, 100, 50, 20, 5, 0):
        table = stock_cache_table(days)
        refresher = LocalRefresher(stock_master_table(days))
        steps = table_steps(table, "SUM", "price", budget, cost=cost)
        answer = drive_steps(steps, refresher)
        pct = 100.0 * answer.refresh_cost / total_cost_possible
        print(
            f"  {budget:>8}  {str(answer.bound):>22}  "
            f"{len(answer.refreshed):>9}  {answer.refresh_cost:>6g}  {pct:>8.1f}%"
        )

    print("\nAVG(price) WITHIN 0.25 planned by choosers built at several epsilon:")
    table = stock_cache_table(days)
    for epsilon in (0.01, 0.1, 0.5):
        plan, _ = AvgChooseRefresh(epsilon=epsilon).without_predicate(
            table, "price", 0.25, cost
        )
        print(
            f"  eps={epsilon:<4}: plan cost {plan.total_cost:>5g}, "
            f"tuples {len(plan.tids)}"
        )
    print(
        "  (these costs are small integers, so the exact DP plans at every\n"
        "   epsilon; epsilon matters once costs are fractional or large)"
    )

    print("\nBounded TOP-5 most expensive tickers (no refreshing):")
    steps = top_n_steps(stock_cache_table(days), 5, "price", math.inf)
    result = drive_steps(steps, NullRefreshProvider())
    print(f"  5th-highest price is guaranteed in {result.bound}")
    print(f"  certain top-5 members : {sorted(result.certain_members)}")
    print(f"  possible members      : {len(result.possible_members)} tickers")

    print("\nCOUNT of tickers certainly above 100 (predicate over bounds):")
    from repro.predicates.parser import parse_predicate

    for budget in (20, 5, 0):
        fresh = stock_cache_table(days)
        steps = table_steps(
            fresh, "COUNT", None, budget,
            predicate=parse_predicate("price > 100"), cost=cost,
        )
        answer = drive_steps(steps, LocalRefresher(stock_master_table(days)))
        print(
            f"  WITHIN {budget:>3}: {answer.bound}  "
            f"(refreshed {len(answer.refreshed)})"
        )


if __name__ == "__main__":
    main()
