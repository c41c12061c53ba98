"""Figure 2 + worked examples Q1-Q6: paper-vs-measured regeneration.

The paper's Figure 2 table and the six worked queries (with their exact
refresh sets and bounded answers) constitute the paper's correctness
evidence.  This bench re-runs all six through the full executor and prints
a paper-vs-measured table, then benchmarks the executor on the Figure 2
scale (the paper reports no timings for these; the benchmark documents
ours).
"""

import pytest

from repro.bench.tables import banner, print_table
from repro.core.bound import Bound
from repro.core.executor import QueryExecutor
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.storage.table import Table
from repro.workloads.netmon import paper_example_table, paper_master_table

COST = ColumnCostModel("cost")

#: (name, subset, aggregate, column, R, predicate, expected bound,
#:  expected refresh set)
EXAMPLES = [
    ("Q1 MIN bandwidth, path", (1, 2, 5, 6), "MIN", "bandwidth", 10, None,
     Bound(45, 50), {5}),
    ("Q2 SUM latency, path", (1, 2, 5, 6), "SUM", "latency", 5, None,
     Bound(21, 26), {1, 6}),
    ("Q3 AVG traffic", None, "AVG", "traffic", 10, None,
     Bound(103, 113), {5, 6}),
    ("Q4 MIN traffic, fast links", None, "MIN", "traffic", 10,
     "bandwidth > 50 AND latency < 10", Bound(95, 105), {5, 6}),
    ("Q5 COUNT high latency", None, "COUNT", None, 1, "latency > 10",
     Bound(2, 3), {5}),
    ("Q6 AVG latency, busy links", None, "AVG", "latency", 2, "traffic > 100",
     Bound(8, 9), {1, 3, 5, 6}),
]


def _table_for(subset):
    full = paper_example_table()
    if subset is None:
        return full
    view = Table("links", full.schema)
    for tid in subset:
        view.insert(full.row(tid).as_dict(), tid=tid)
    return view


def _run(name, subset, aggregate, column, budget, where):
    table = _table_for(subset)
    executor = QueryExecutor(
        refresher=LocalRefresher(paper_master_table()), force_exact=True
    )
    predicate = parse_predicate(where) if where else None
    return executor.execute(table, aggregate, column, budget, predicate, COST)


def test_fig2_examples_match_paper():
    rows = []
    for name, subset, aggregate, column, budget, where, expected, refresh in EXAMPLES:
        answer = _run(name, subset, aggregate, column, budget, where)
        rows.append(
            (
                name,
                str(expected),
                str(answer.bound),
                ",".join(map(str, sorted(refresh))),
                ",".join(map(str, sorted(answer.refreshed))),
            )
        )
        assert answer.bound.lo == pytest.approx(expected.lo), name
        assert answer.bound.hi == pytest.approx(expected.hi), name
        assert set(answer.refreshed) == refresh, name

    banner("Figure 2 worked examples — paper vs measured")
    print_table(
        ["query", "paper answer", "measured", "paper refresh set", "measured set"],
        rows,
    )


@pytest.mark.parametrize(
    "name,subset,aggregate,column,budget,where",
    [(e[0], e[1], e[2], e[3], e[4], e[5]) for e in EXAMPLES],
    ids=[e[0].split()[0] for e in EXAMPLES],
)
def test_fig2_query_timing(benchmark, name, subset, aggregate, column, budget, where):
    answer = benchmark(lambda: _run(name, subset, aggregate, column, budget, where))
    assert answer.width <= budget + 1e-9
