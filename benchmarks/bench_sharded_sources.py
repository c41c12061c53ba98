"""Sharded sources: refresh cost per answered query vs shard fan-in (ISSUE 4).

The §8.2 amortized model (``setup + marginal · k`` per message) rewards
concentrating a refresh batch on few sources — but with the pre-sharding
1:1 table↔source layout every plan trivially hit one source and the
cross-query rebatcher's >1-source branch never ran.  This benchmark
shards one netmon ``links`` table across N sources whose per-tuple
marginals are evenly spaced with a *fan-in-independent mean*
(:func:`repro.workloads.service.shard_marginals`): sweeping N changes
only how much cost heterogeneity the planner can exploit, never the
average price of the deployment.

At every fan-in the same multi-client closed-loop SUM workload runs
against a :class:`~repro.service.QueryService` whose scheduler coalesces
and rebatches refreshes per shard, and the metric recorded is **total
refresh cost actually paid per answered query** (scheduler receipts, so
per-shard setups and marginals are priced exactly).  Because each
link's ``cost`` column holds its shard's marginal, CHOOSE_REFRESH plans
columnar (``ColumnCostModel`` → ``harvest_candidates``) and
concentrates plans on cheap shards; the rebatcher then steers residual
tuples toward shards the tick already pays setup for.  The cheapest
shard's marginal falls as ``lo + (hi − lo)/2N``, so cost per answer must
*decrease* as fan-in grows — the acceptance criterion asserted below.

Results merge into ``BENCH_sharded_sources.json``: full-size runs write
the ``full`` section, ``--smoke`` runs (CI) write the ``smoke`` section
and additionally fail if cost per answer at the highest fan-in regressed
more than 1.5× over the committed baseline (cost accounting is
deterministic arithmetic, so the tripwire is machine-independent).

Environment knobs: ``BENCH_SHARDED_LINKS`` (600), ``BENCH_SHARDED_CLIENTS``
(12), ``BENCH_SHARDED_QUERIES`` (6), ``BENCH_SHARDED_ROUNDS`` (3),
``BENCH_SHARDED_FANINS`` ("1,2,4,8"), ``BENCH_SHARDED_MIN_GAIN``,
``BENCH_SHARDED_SMOKE`` (0).  ``python benchmarks/bench_sharded_sources.py
--smoke`` sets the CI smoke profile.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

import pytest

from repro.bench.tables import banner, print_table
from repro.core.refresh.costs import ColumnCostModel
from repro.service import QueryService
from repro.telemetry import summarize_snapshot
from repro.workloads.service import (
    run_closed_loop,
    sharded_service_system,
    sharded_sum_scripts,
)

SMOKE = os.environ.get("BENCH_SHARDED_SMOKE", "0") == "1"
N_LINKS = int(os.environ.get("BENCH_SHARDED_LINKS", "240" if SMOKE else "600"))
N_CLIENTS = int(os.environ.get("BENCH_SHARDED_CLIENTS", "6" if SMOKE else "12"))
QUERIES = int(os.environ.get("BENCH_SHARDED_QUERIES", "3" if SMOKE else "6"))
ROUNDS = int(os.environ.get("BENCH_SHARDED_ROUNDS", "2" if SMOKE else "3"))
FANINS = tuple(
    int(f)
    for f in os.environ.get("BENCH_SHARDED_FANINS", "1,2,4,8").split(",")
)
#: Cost-per-answer at fan-in 1 over cost-per-answer at the highest
#: fan-in — the amortization the sharded machinery must deliver.  The
#: marginal spread alone bounds it by ~(lo+hi)/2 ÷ (lo+(hi−lo)/2N);
#: smoke shrinks the workload (fewer queries to amortize setups over).
MIN_GAIN = float(
    os.environ.get("BENCH_SHARDED_MIN_GAIN", "1.3" if SMOKE else "1.5")
)
#: Consecutive fan-ins may not *increase* cost per answer beyond this
#: slack (closed-loop interleaving adds a little nondeterminism).
MONOTONE_SLACK = 1.05
#: CI guard: smoke cost-per-answer at max fan-in vs the committed baseline.
SMOKE_REGRESSION_LIMIT = 1.5
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded_sources.json"
SEED = 20000521


async def _run_fanin(n_shards: int) -> dict:
    """One closed-loop serving run at one shard fan-in."""
    system, model = sharded_service_system(
        n_shards, n_links=N_LINKS, seed=SEED
    )
    service = QueryService(
        system, max_inflight=64, cost_model=model, adaptive_tick=True
    )
    cache = system.cache("monitor")
    scripts = sharded_sum_scripts(
        cache.table("links"), N_CLIENTS, QUERIES, seed=SEED
    )
    cost = ColumnCostModel("cost")

    async def issue(client_id: str, sql: str):
        return await service.query("monitor", sql, client_id=client_id, cost=cost)

    completed = 0
    for _ in range(ROUNDS):
        system.clock.advance(5.0)
        cache.sync_bounds()
        result = await run_closed_loop(issue, scripts)
        assert result.errors == 0, "sharded serving run must be error-free"
        completed += result.completed

    stats = service.stats()["scheduler"]
    return {
        "fanin": n_shards,
        "answers": completed,
        "total_cost_paid": stats["total_cost_paid"],
        "cost_per_answer": stats["total_cost_paid"] / completed,
        "source_requests": stats["source_requests"],
        "tuples_refreshed": stats["tuples_refreshed"],
        "plans_submitted": stats["plans_submitted"],
    }


@pytest.fixture(scope="module")
def fanin_series():
    return [asyncio.run(_run_fanin(fanin)) for fanin in FANINS]


def test_cost_per_answer_decreases_with_fanin(fanin_series):
    """The acceptance criterion: amortization improves with fan-in."""
    banner(
        f"Sharded sources — {N_LINKS} links, {N_CLIENTS} clients × "
        f"{QUERIES} queries × {ROUNDS} rounds"
    )
    print_table(
        ["fan-in", "answers", "cost paid", "cost/answer", "messages"],
        [
            (
                run["fanin"],
                run["answers"],
                run["total_cost_paid"],
                run["cost_per_answer"],
                run["source_requests"],
            )
            for run in fanin_series
        ],
    )
    gain = fanin_series[0]["cost_per_answer"] / fanin_series[-1]["cost_per_answer"]
    print(f"amortization gain (fan-in {FANINS[0]} → {FANINS[-1]}): {gain:.2f}x")

    _merge_results(
        {
            "links": N_LINKS,
            "clients": N_CLIENTS,
            "queries_per_client": QUERIES,
            "rounds": ROUNDS,
            "series": fanin_series,
            "amortization_gain": gain,
        }
    )
    _check_smoke_regression(fanin_series[-1]["cost_per_answer"])

    for earlier, later in zip(fanin_series, fanin_series[1:]):
        assert later["cost_per_answer"] <= (
            earlier["cost_per_answer"] * MONOTONE_SLACK
        ), (
            f"cost per answer rose from fan-in {earlier['fanin']} "
            f"({earlier['cost_per_answer']:.3f}) to fan-in {later['fanin']} "
            f"({later['cost_per_answer']:.3f})"
        )
    assert gain >= MIN_GAIN, (
        f"sharding must cut cost per answer >= {MIN_GAIN:g}x by fan-in "
        f"{FANINS[-1]}, got {gain:.2f}x"
    )


def test_rebatcher_multi_source_branch_runs(fanin_series):
    """Fan-in > 1 is the first workload where plans span several sources:
    the scheduler must have split refresh traffic across shard messages
    (one message per contacted shard per tick, not one per table)."""
    multi = [run for run in fanin_series if run["fanin"] > 1]
    if not multi:
        pytest.skip("no multi-shard fan-in configured")
    # With per-shard pricing the cheap shard cannot always hold every
    # planned tuple, so across the whole run at least one tick must have
    # contacted more than one shard — yet far fewer messages than an
    # unbatched per-tuple protocol would send.
    for run in multi:
        assert run["source_requests"] < run["tuples_refreshed"], (
            f"fan-in {run['fanin']}: {run['source_requests']} messages for "
            f"{run['tuples_refreshed']} tuples — batching is not amortizing"
        )


# ----------------------------------------------------------------------
def _load_results() -> dict:
    if RESULTS_PATH.exists():
        try:
            return json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            pass
    return {"benchmark": "sharded_sources"}


def _merge_results(section: dict) -> None:
    """Update this run's profile section, preserving the other's numbers."""
    results = _load_results()
    results["smoke" if SMOKE else "full"] = section
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _check_smoke_regression(cost_per_answer: float) -> None:
    """CI tripwire: smoke cost-per-answer vs the committed baseline."""
    if not SMOKE:
        return
    baseline = _load_results().get("smoke_baseline")
    if not baseline or baseline.get("links") != N_LINKS:
        return
    limit = baseline["cost_per_answer_max_fanin"] * SMOKE_REGRESSION_LIMIT
    assert cost_per_answer <= limit, (
        f"smoke cost per answer {cost_per_answer:.3f} at fan-in {FANINS[-1]} "
        f"regressed more than {SMOKE_REGRESSION_LIMIT:g}x over the committed "
        f"baseline {baseline['cost_per_answer_max_fanin']:.3f}"
    )


def _record_smoke_baseline() -> None:
    """Refresh the committed smoke baseline from the current smoke numbers."""
    results = _load_results()
    smoke = results.get("smoke")
    if smoke:
        results["smoke_baseline"] = {
            "links": smoke["links"],
            "cost_per_answer_max_fanin": smoke["series"][-1]["cost_per_answer"],
        }
        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


#: Families persisted in the committed ``telemetry`` section (PR 7):
#: the per-shard batch sizes and receipts the fan-in machinery pays.
TELEMETRY_PREFIXES = (
    "trapp_source_batch_size",
    "trapp_source_refreshes",
    "trapp_refresh_cost",
    "trapp_scheduler_events_total",
    "trapp_queries_total",
)


def _telemetry_section() -> dict:
    """One compact run at fan-in 4 (fixed sizes, independent of the env
    knobs) — merged as the ``telemetry`` key only."""

    async def go() -> dict:
        system, model = sharded_service_system(4, n_links=120, seed=SEED)
        service = QueryService(
            system, max_inflight=64, cost_model=model, adaptive_tick=True
        )
        cache = system.cache("monitor")
        scripts = sharded_sum_scripts(cache.table("links"), 6, 2, seed=SEED)
        cost = ColumnCostModel("cost")

        async def issue(client_id: str, sql: str):
            return await service.query(
                "monitor", sql, client_id=client_id, cost=cost
            )

        for _ in range(2):
            system.clock.advance(5.0)
            cache.sync_bounds()
            result = await run_closed_loop(issue, scripts)
            assert result.errors == 0
        return summarize_snapshot(
            service.telemetry.snapshot(), prefixes=TELEMETRY_PREFIXES
        )

    return asyncio.run(go())


def _merge_telemetry() -> None:
    """Refresh only the top-level ``telemetry`` key of the results file."""
    results = _load_results()
    results["telemetry"] = _telemetry_section()
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
        os.environ["BENCH_SHARDED_SMOKE"] = "1"
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
