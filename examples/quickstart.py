"""Quickstart: bounded answers and the precision-performance tradeoff.

Builds the paper's Figure 2 network-monitoring dataset, wires a TRAPP
source and cache, and runs the worked example queries Q1-Q6 — each with
the precision constraint the paper uses — printing the bounded answer,
the tuples refreshed, and the refresh cost.

Run:  python examples/quickstart.py
"""

from repro.core.executor import drive_steps, table_steps
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.netmon import paper_example_table, paper_master_table


def run_query(title, table, refresher, aggregate, column, budget, where=None):
    predicate = parse_predicate(where) if where else None
    steps = table_steps(
        table,
        aggregate,
        column,
        budget,
        predicate=predicate,
        cost=ColumnCostModel("cost"),
    )
    answer = drive_steps(steps, refresher)
    target = column or "*"
    constraint = f"WITHIN {budget:g}" if budget != float("inf") else ""
    where_text = f" WHERE {where}" if where else ""
    print(f"\n{title}")
    print(f"  SELECT {aggregate}({target}) {constraint} FROM links{where_text}")
    print(f"  cached-only answer : {answer.initial_bound or answer.bound}")
    print(f"  guaranteed answer  : {answer.bound}  (width {answer.width:g})")
    if answer.refreshed:
        print(
            f"  refreshed tuples   : {sorted(answer.refreshed)} "
            f"(cost {answer.refresh_cost:g})"
        )
    else:
        print("  refreshed tuples   : none needed")
    return answer


def main():
    print("TRAPP/AG quickstart — the paper's Figure 2 data, queries Q1-Q6")
    print("=" * 66)

    # Q1/Q2 range over the path N1 -> N2 -> N4 -> N5 -> N6 (rows 1,2,5,6).
    full = paper_example_table()
    from repro.storage.table import Table

    path = Table("links", full.schema)
    for tid in (1, 2, 5, 6):
        path.insert(full.row(tid).as_dict(), tid=tid)

    run_query(
        "Q1: bottleneck bandwidth along the path (MIN, R=10)",
        path, LocalRefresher(paper_master_table()), "MIN", "bandwidth", 10,
    )
    run_query(
        "Q2: total latency along the path (SUM, R=5)",
        _fresh_path(), LocalRefresher(paper_master_table()), "SUM", "latency", 5,
    )
    run_query(
        "Q3: average traffic, whole network (AVG, R=10)",
        paper_example_table(), LocalRefresher(paper_master_table()),
        "AVG", "traffic", 10,
    )
    run_query(
        "Q4: minimum traffic on fast links (MIN, R=10)",
        paper_example_table(), LocalRefresher(paper_master_table()),
        "MIN", "traffic", 10, where="bandwidth > 50 AND latency < 10",
    )
    run_query(
        "Q5: how many high-latency links (COUNT, R=1)",
        paper_example_table(), LocalRefresher(paper_master_table()),
        "COUNT", None, 1, where="latency > 10",
    )
    run_query(
        "Q6: average latency of busy links (AVG, R=2)",
        paper_example_table(), LocalRefresher(paper_master_table()),
        "AVG", "latency", 2, where="traffic > 100",
    )

    print("\nTradeoff: the same SUM(traffic) query at tightening constraints")
    print(f"  {'R':>6}  {'answer width':>12}  {'refresh cost':>12}")
    for budget in (100, 50, 25, 10, 5, 1, 0):
        table = paper_example_table()
        refresher = LocalRefresher(paper_master_table())
        steps = table_steps(
            table, "SUM", "traffic", budget,
            cost=ColumnCostModel("cost"),
        )
        answer = drive_steps(steps, refresher)
        print(f"  {budget:>6}  {answer.width:>12g}  {answer.refresh_cost:>12g}")
    print("\nLower R (more precision) costs more refreshing — Figure 1(b).")


def _fresh_path():
    from repro.storage.table import Table

    full = paper_example_table()
    path = Table("links", full.schema)
    for tid in (1, 2, 5, 6):
        path.insert(full.row(tid).as_dict(), tid=tid)
    return path


if __name__ == "__main__":
    main()
