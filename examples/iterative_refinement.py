"""Online aggregation: watch a bounded answer refine one refresh at a time.

Paper §8.2 suggests an iterative CHOOSE_REFRESH with "online" behaviour:
present the user a bounded answer immediately and shrink it with every
refresh until the precision constraint is met.  This example renders that
refinement as a terminal progress display for an AVG query over the
volatile stock day, then compares total refreshes against the batch
optimizer for the same constraint.

Run:  python examples/iterative_refinement.py
"""

from repro.core.executor import QueryExecutor
from repro.extensions.iterative import IterativeRefreshExecutor
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.stocks import (
    stock_cache_table,
    stock_master_table,
    volatile_stock_day,
)

BUDGET = 0.6  # precision constraint on AVG(price)


def bar(width, scale=12.0, columns=48):
    filled = min(columns, int(columns * width / scale))
    return "#" * filled + "." * (columns - filled)


def main():
    days = volatile_stock_day(n_stocks=90)
    cost = ColumnCostModel("cost")

    print(f"AVG(price) WITHIN {BUDGET} over 90 cached tickers — online mode\n")
    table = stock_cache_table(days)
    iterative = IterativeRefreshExecutor(
        LocalRefresher(stock_master_table(days)), cost=cost
    )
    steps = list(iterative.steps(table, "AVG", "price", BUDGET))
    initial_width = steps[0].bound.width
    for i, step in enumerate(steps):
        if i % max(1, len(steps) // 18) and i != len(steps) - 1:
            continue  # sample the display for long refinements
        who = f"refresh #{i:<3}" if step.refreshed_tid is not None else "cached only"
        print(
            f"  {who}  [{bar(step.bound.width, scale=initial_width)}] "
            f"width {step.bound.width:6.3f}  cost {step.cumulative_cost:5.0f}"
        )
    online_refreshes = len(steps) - 1
    online_cost = steps[-1].cumulative_cost
    print(f"\n  online: {online_refreshes} refreshes, cost {online_cost:g}")

    # The batch optimizer must guarantee the constraint for ANY realization,
    # so it typically refreshes more than the online run needed.
    table = stock_cache_table(days)
    batch = QueryExecutor(
        refresher=LocalRefresher(stock_master_table(days)), epsilon=0.1
    ).execute(table, "AVG", "price", BUDGET, cost=cost)
    print(f"  batch : {len(batch.refreshed)} refreshes, cost {batch.refresh_cost:g}")
    print(
        "\nThe batch plan pays for worst-case realizations; the online run"
        "\nstops as soon as the actual values decide the answer (at the price"
        "\nof one protocol round trip per refresh)."
    )


if __name__ == "__main__":
    main()
