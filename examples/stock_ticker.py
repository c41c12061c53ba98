"""Portfolio analytics over cached stock quotes (the paper's §5.2.1 data).

Synthesizes the 90-ticker volatile trading day used by the paper's
experiments, caches each ticker's [day-low, day-high] as its price bound,
and answers portfolio-style aggregation queries at a range of precision
constraints, demonstrating how much cheaper approximate answers are.

Also shows the knapsack approximation knob: the same query solved exactly
and at several epsilon values.

Run:  python examples/stock_ticker.py
"""

from repro.core.executor import QueryExecutor
from repro.extensions.topn import bounded_top_n
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.stocks import (
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
        executor = QueryExecutor(refresher=refresher, epsilon=0.1)
        answer = executor.execute(table, "SUM", "price", budget, cost=cost)
        pct = 100.0 * answer.refresh_cost / total_cost_possible
        print(
            f"  {budget:>8}  {str(answer.bound):>22}  "
            f"{len(answer.refreshed):>9}  {answer.refresh_cost:>6g}  {pct:>8.1f}%"
        )

    print("\nAVG(price) WITHIN 0.25 under different knapsack solvers:")
    for label, kwargs in [
        ("exact DP", {"force_exact": True}),
        ("eps=0.01", {"epsilon": 0.01}),
        ("eps=0.1", {"epsilon": 0.1}),
        ("eps=0.5", {"epsilon": 0.5}),
    ]:
        table = stock_cache_table(days)
        refresher = LocalRefresher(stock_master_table(days))
        executor = QueryExecutor(refresher=refresher, **kwargs)
        answer = executor.execute(table, "AVG", "price", 0.25, cost=cost)
        print(
            f"  {label:>9}: cost {answer.refresh_cost:>5g}, "
            f"width {answer.width:.3f}, refreshed {len(answer.refreshed)}"
        )
    print("  (looser epsilon -> faster optimizer, slightly costlier plan)")

    print("\nBounded TOP-5 most expensive tickers (no refreshing):")
    table = stock_cache_table(days)
    result = bounded_top_n(table.rows(), "price", 5)
    print(f"  5th-highest price is guaranteed in {result.nth_value}")
    print(f"  certain top-5 members : {sorted(result.certain_members)}")
    print(f"  possible members      : {len(result.possible_members)} tickers")

    print("\nCOUNT of tickers certainly above 100 (predicate over bounds):")
    from repro.predicates.parser import parse_predicate

    table = stock_cache_table(days)
    refresher = LocalRefresher(stock_master_table(days))
    executor = QueryExecutor(refresher=refresher)
    for budget in (20, 5, 0):
        fresh = stock_cache_table(days)
        answer = QueryExecutor(
            refresher=LocalRefresher(stock_master_table(days))
        ).execute(
            fresh, "COUNT", None, budget,
            predicate=parse_predicate("price > 100"), cost=cost,
        )
        print(
            f"  WITHIN {budget:>3}: {answer.bound}  "
            f"(refreshed {len(answer.refreshed)})"
        )


if __name__ == "__main__":
    main()
