"""Online aggregation: watch a bounded answer refine one refresh at a time.

Paper §8.2 suggests an iterative CHOOSE_REFRESH with "online" behaviour:
present the user a bounded answer immediately and shrink it with every
refresh until the precision constraint is met.  This example drives
``iterative_steps`` — one tuple per round of the executor's refresh
loop — by hand, renders the bound between rounds as a terminal progress
display for an AVG query over the volatile stock day, then compares total
refreshes against the batch optimizer for the same constraint.

Run:  python examples/iterative_refinement.py
"""

from repro.core.aggregates import get_aggregate
from repro.core.executor import (
    bounded_answer,
    drive_steps,
    iterative_steps,
    table_steps,
)
from repro.predicates.ast import TruePredicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from section8.stocks import (
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
    refresher = LocalRefresher(stock_master_table(days))
    avg = get_aggregate("AVG")

    # Between rounds the cache is the driver's to read: the bound as it
    # stands is what an online UI shows.
    rows = [("cached only", bounded_answer(table, avg, "price", TruePredicate())[0], 0.0)]
    steps = iterative_steps(table, "AVG", "price", BUDGET, cost=cost)
    spent = 0.0
    try:
        request = next(steps)
        while True:
            refresher.refresh(table, request.plan.tids)
            spent += request.plan.total_cost
            bound, _ = bounded_answer(table, avg, "price", TruePredicate())
            rows.append((f"refresh #{len(rows):<3}", bound, spent))
            request = steps.send(request.plan)
    except StopIteration as stop:
        online = stop.value

    initial_width = rows[0][1].width
    for i, (who, bound, cumulative) in enumerate(rows):
        if i % max(1, len(rows) // 18) and i != len(rows) - 1:
            continue  # sample the display for long refinements
        print(
            f"  {who}  [{bar(bound.width, scale=initial_width)}] "
            f"width {bound.width:6.3f}  cost {cumulative:5.0f}"
        )
    print(
        f"\n  online: {len(online.refreshed)} refreshes, "
        f"cost {online.refresh_cost:g}"
    )

    # The batch optimizer must guarantee the constraint for ANY realization,
    # so it typically refreshes more than the online run needed.
    table = stock_cache_table(days)
    steps = table_steps(table, "AVG", "price", BUDGET, cost=cost)
    batch = drive_steps(steps, LocalRefresher(stock_master_table(days)))
    print(f"  batch : {len(batch.refreshed)} refreshes, cost {batch.refresh_cost:g}")
    print(
        "\nThe batch plan pays for worst-case realizations; the online run"
        "\nstops as soon as the actual values decide the answer (at the price"
        "\nof one protocol round trip per refresh)."
    )


if __name__ == "__main__":
    main()
