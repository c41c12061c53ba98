"""CHOOSE_REFRESH planner: the vector pipeline's cost (ISSUE 3).

PR 1 vectorized the executor's answer sweeps; this benchmark measures the
other half of every refresh-bearing query — §5.2 plan *selection* — after
rebuilding it around columnar candidate harvesting, the sparse
array-backed knapsack core, and the store's epoch-cached sorted-width
orderings.  Three measurements:

1. **planner/uniform @ N** — the vector planner walks the store's cached
   width ordering sort-free with no per-tuple objects.  Cold (first
   query after a write) and warm (repeated queries, the service's steady
   state) are reported separately.  (Until PR 19 a third leg timed the
   planner this replaced — one ``KnapsackItem`` per tuple, sorted per
   call — and asserted a ≥10× warm ratio; it left with the row-taking
   method family, which is now a test oracle that ``benchmarks/`` may
   not import.  Its dated result, 35× warm / 16× cold at n = 50 000, is
   in ``docs/PERFORMANCE.md``.)
2. **planner/exact-DP @ N_EXACT** — the ``solve_exact_dp`` memory fix.
   A faithful copy of the pre-PR dense DP (the ``n × (P+1)`` boolean
   ``take`` matrix) runs against the sparse-frontier DP on the same
   integer-cost instance; peak traced allocations are compared (wall
   time too, but the *memory* ratio is the regression the satellite
   pins — it is machine-independent).
3. **planner/Ibarra–Kim @ N** — fractional costs at full scale.  The
   pre-PR scheme is infeasible here (its dense DP would allocate ~1e10
   cells), so the new path's absolute time is recorded with the old one
   marked infeasible.

(A fourth, a service-level A/B of the two planners, went with the option
that selected the object planner; its dated result is in
``docs/PERFORMANCE.md``.)

Results merge into ``BENCH_refresh_planner.json``: full-size runs write
the ``full`` section, ``--smoke`` runs (CI) write the ``smoke`` section
and additionally fail if the smoke planner time regressed more than 3×
over the committed baseline.

Environment knobs: ``BENCH_PLANNER_N`` (50000), ``BENCH_PLANNER_EXACT_N``
(800), ``BENCH_PLANNER_REPEATS`` (5), ``BENCH_PLANNER_SMOKE`` (0).  ``python
benchmarks/bench_refresh_planner.py --smoke`` sets the CI smoke profile.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.bench.tables import banner, print_table
from repro.core.knapsack import KnapsackItem, solve_exact_dp
from repro.core.refresh.base import uniform_cost
from repro.core.refresh.summing import SumChooseRefresh
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.telemetry import summarize_snapshot
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.stocks import stock_cache_table, volatile_stock_day

SMOKE = os.environ.get("BENCH_PLANNER_SMOKE", "0") == "1"
N = int(os.environ.get("BENCH_PLANNER_N", "4000" if SMOKE else "50000"))
N_EXACT = int(os.environ.get("BENCH_PLANNER_EXACT_N", "120" if SMOKE else "800"))
REPEATS = int(os.environ.get("BENCH_PLANNER_REPEATS", "3" if SMOKE else "5"))
MIN_MEMORY_RATIO = float(
    os.environ.get("BENCH_PLANNER_MIN_MEMORY_RATIO", "5.0" if SMOKE else "10.0")
)
#: CI guard: smoke planner time may not regress more than this over the
#: committed baseline.
SMOKE_REGRESSION_LIMIT = 3.0
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_refresh_planner.json"
SEED = 20000521


def _best_of(fn, repeats=REPEATS):
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# The pre-PR dense DP, verbatim: the baseline measurement 2 runs against.
# ----------------------------------------------------------------------
def _legacy_dense_dp(items, capacity):
    """The original ``solve_exact_dp`` inner loop: n × (P+1) take matrix."""
    contenders = [i for i in items if 0 < i.weight <= capacity]
    always_in = [i.item_id for i in items if i.weight <= 0]
    int_profits = [round(i.profit) for i in contenders]
    total_profit = sum(int_profits)
    min_weight = [math.inf] * (total_profit + 1)
    min_weight[0] = 0.0
    take = []
    for item, p_i in zip(contenders, int_profits):
        row = [False] * (total_profit + 1)
        if p_i == 0:
            take.append(row)
            continue
        for p in range(total_profit, p_i - 1, -1):
            candidate = min_weight[p - p_i] + item.weight
            if candidate < min_weight[p]:
                min_weight[p] = candidate
                row[p] = True
        take.append(row)
    best_profit = max(
        (p for p in range(total_profit + 1) if min_weight[p] <= capacity),
        default=0,
    )
    chosen = set(always_in)
    p = best_profit
    for i in range(len(contenders) - 1, -1, -1):
        if p > 0 and take[i][p]:
            chosen.add(contenders[i].item_id)
            p -= int_profits[i]
    return chosen, best_profit


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stocks_cache():
    days = volatile_stock_day(n_stocks=N, ticks=40, seed=SEED)
    return stock_cache_table(days)


def test_uniform_planner_speedup(stocks_cache):
    """Measurement 1: the vector planner, cold and warm."""
    cache = stocks_cache
    store = cache.columns
    rows = cache.rows()
    total_width = sum(row.bound("price").width for row in rows)
    budget = total_width * 0.5
    chooser = SumChooseRefresh()

    # Cold: a write invalidates the ordering; the next query rebuilds it.
    cold_seconds, _ = _best_of(
        lambda: (
            store.set(rows[0].tid, "price", rows[0].bound("price")),
            store._sorted_orders.clear(),
            chooser.without_predicate(cache, "price", budget, uniform_cost),
        )[-1]
    )
    warm_seconds, vectorized = _best_of(
        lambda: chooser.without_predicate(cache, "price", budget, uniform_cost)
    )
    vector_plan, vector_cv = vectorized

    # The uniform walk keeps the longest ascending-width prefix that fits.
    kept_width = total_width - sum(
        row.bound("price").width for row in rows if row.tid in vector_plan.tids
    )
    assert kept_width <= budget * (1 + 1e-9)
    # ISSUE 10 satellite: the warm whole-table harvest must reuse the
    # width vector already cached on the sorted-width ordering instead of
    # recomputing ``hi - lo`` per query.
    import numpy as np

    assert np.shares_memory(
        vector_cv.widths, store.width_order("price").keys_by_tid
    ), "whole-table harvest recomputed widths instead of reusing the cache"

    banner(f"CHOOSE_REFRESH uniform planner — {N} tuples")
    print_table(
        ["path", "seconds"],
        [
            ("vector planner, cold", cold_seconds),
            ("vector planner, warm", warm_seconds),
        ],
    )

    _merge_results(
        {
            "uniform": {
                "n": N,
                "vector_cold_seconds": cold_seconds,
                "vector_warm_seconds": warm_seconds,
                "plan_size": len(vector_plan.tids),
            }
        }
    )
    _check_smoke_regression(warm_seconds)


def test_exact_dp_memory_and_time():
    """Measurement 2: sparse-frontier DP vs the dense take-matrix DP."""
    rng = random.Random(SEED)
    items = [
        KnapsackItem(i, rng.uniform(0.05, 4.0), float(rng.randint(1, 10)))
        for i in range(N_EXACT)
    ]
    # A tight precision budget — the regime where refresh planning
    # actually bites.  The dense matrix allocates n × (P+1) regardless;
    # the sparse frontier only ever holds capacity-feasible states.
    capacity = sum(i.weight for i in items) * 0.05

    tracemalloc.start()
    start = time.perf_counter()
    legacy_chosen, legacy_profit = _legacy_dense_dp(items, capacity)
    legacy_seconds = time.perf_counter() - start
    _, legacy_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    start = time.perf_counter()
    sparse = solve_exact_dp(items, capacity)
    sparse_seconds = time.perf_counter() - start
    _, sparse_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert sparse.total_profit == pytest.approx(float(legacy_profit))
    memory_ratio = legacy_peak / max(1, sparse_peak)
    banner(f"Exact DP — {N_EXACT} integer-cost items")
    print_table(
        ["path", "seconds", "peak MB"],
        [
            ("dense take-matrix (pre-PR)", legacy_seconds, legacy_peak / 1e6),
            ("sparse frontier", sparse_seconds, sparse_peak / 1e6),
        ],
    )

    _merge_results(
        {
            "exact_dp": {
                "n": N_EXACT,
                "legacy_seconds": legacy_seconds,
                "sparse_seconds": sparse_seconds,
                "legacy_peak_mb": legacy_peak / 1e6,
                "sparse_peak_mb": sparse_peak / 1e6,
                "memory_ratio": memory_ratio,
            }
        }
    )
    assert memory_ratio >= MIN_MEMORY_RATIO, (
        f"sparse DP must allocate >= {MIN_MEMORY_RATIO:g}x less, "
        f"got {memory_ratio:.1f}x"
    )


def test_ibarra_kim_at_scale(stocks_cache):
    """Measurement 3: fractional costs at full N (pre-PR: infeasible)."""
    cache = stocks_cache
    store = cache.columns
    rows = cache.rows()
    total_width = sum(row.bound("price").width for row in rows)
    budget = total_width * 0.5

    # Fractional per-tuple costs force the ε-approximation branch:
    # harvest the integer cost column, then shift the cost vector.
    from repro.storage.columnar import harvest_candidates

    cv = harvest_candidates(store, "price", store.endpoints("cost")[0])
    cv.costs = cv.costs + 0.5
    cv.cost_min += 0.5
    cv.cost_max += 0.5
    cv.costs_integral = False
    chooser = SumChooseRefresh(epsilon=0.1)
    seconds, plan = _best_of(lambda: chooser._solve(cv, budget))

    banner(f"Ibarra–Kim ε=0.1 — {N} tuples, fractional costs")
    print_table(
        ["path", "seconds"],
        [
            ("pre-PR dense scheme", "infeasible (~1e10 DP cells)"),
            ("vector + profit-prefix exit", seconds),
        ],
    )
    _merge_results(
        {
            "ibarra_kim": {
                "n": N,
                "vector_seconds": seconds,
                "legacy_infeasible": True,
                "plan_cost": plan.total_cost,
            }
        }
    )
    # Sanity: the plan is feasible for the budget.
    kept_width = total_width - sum(
        row.bound("price").width for row in rows if row.tid in plan.tids
    )
    assert kept_width <= budget * (1 + 1e-9)


# ----------------------------------------------------------------------
def _load_results() -> dict:
    if RESULTS_PATH.exists():
        try:
            return json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            pass
    return {"benchmark": "refresh_planner"}


def _merge_results(section: dict) -> None:
    """Update this run's section, preserving the other profile's numbers."""
    results = _load_results()
    key = "smoke" if SMOKE else "full"
    results.setdefault(key, {}).update(section)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _check_smoke_regression(warm_seconds: float) -> None:
    """CI tripwire: smoke planner time vs the committed baseline."""
    if not SMOKE:
        return
    baseline = _load_results().get("smoke_baseline")
    if not baseline or baseline.get("n") != N:
        return
    # Floor at 5 ms: sub-millisecond baselines would otherwise turn
    # runner jitter into false regressions; real 3x regressions at this
    # table size land well above the floor.
    limit = max(baseline["vector_warm_seconds"] * SMOKE_REGRESSION_LIMIT, 0.005)
    assert warm_seconds <= limit, (
        f"smoke planner time {warm_seconds:.4f}s regressed more than "
        f"{SMOKE_REGRESSION_LIMIT:g}x over the committed baseline "
        f"{baseline['vector_warm_seconds']:.4f}s"
    )


#: Families persisted in the committed ``telemetry`` section (PR 7):
#: where planning time goes per tick, and how many plans each tick
#: amortizes it over.
TELEMETRY_PREFIXES = (
    "trapp_scheduler_tick_seconds",
    "trapp_scheduler_plans_per_tick",
    "trapp_scheduler_events_total",
    "trapp_admission_wait_seconds",
    "trapp_refresh_cost",
)


def _telemetry_section() -> dict:
    """One compact service run (fixed sizes, independent of the env
    knobs) — merged as the ``telemetry`` key only."""

    async def go() -> dict:
        rng = random.Random(SEED)
        system = TrappSystem()
        source = system.add_source("net")
        source.add_table(
            build_master_table(generate_topology(40, 120, rng), rng)
        )
        cache = system.add_cache("monitor")
        cache.subscribe_table(source, "links")
        system.clock.advance(100.0)
        cache.sync_bounds()
        service = QueryService(system, max_inflight=64, adaptive_tick=True)
        table = cache.table("links")
        total = sum(row.bound("traffic").width for row in table.rows())
        qrng = random.Random(3)
        queries = [
            f"SELECT SUM(traffic) WITHIN "
            f"{total * qrng.uniform(0.2, 0.7):.4f} FROM links"
            for _ in range(12)
        ]
        for _ in range(2):
            system.clock.advance(5.0)
            cache.sync_bounds()
            await asyncio.gather(
                *(
                    service.query("monitor", sql, client_id=f"c{i % 4}")
                    for i, sql in enumerate(queries)
                )
            )
        return summarize_snapshot(
            service.telemetry.snapshot(), prefixes=TELEMETRY_PREFIXES
        )

    return asyncio.run(go())


def _merge_telemetry() -> None:
    """Refresh only the top-level ``telemetry`` key of the results file."""
    results = _load_results()
    results["telemetry"] = _telemetry_section()
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _record_smoke_baseline() -> None:
    """Refresh the committed smoke baseline from the current smoke numbers."""
    results = _load_results()
    uniform = results.get("smoke", {}).get("uniform")
    if uniform:
        results["smoke_baseline"] = {
            "n": uniform["n"],
            "vector_warm_seconds": uniform["vector_warm_seconds"],
        }
        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: reduced sizes, relaxed floors, baseline tripwire",
    )
    parser.add_argument(
        "--record-baseline", action="store_true",
        help="with --smoke: update the committed smoke baseline afterwards",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="refresh only the telemetry section of the results file",
    )
    args = parser.parse_args()
    if args.telemetry:
        _merge_telemetry()
        raise SystemExit(0)
    if args.smoke:
        os.environ["BENCH_PLANNER_SMOKE"] = "1"
        # Re-exec so the module-level knobs pick the smoke profile up.
        if not SMOKE:
            import subprocess

            code = subprocess.call(
                [sys.executable, __file__]
                + (["--record-baseline"] if args.record_baseline else []),
                env={**os.environ},
            )
            raise SystemExit(code)
    code = pytest.main([__file__, "-q", "-s"])
    if code == 0 and SMOKE and args.record_baseline:
        _record_smoke_baseline()
    raise SystemExit(code)
