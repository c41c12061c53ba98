"""Concurrent query service vs serial execution (ISSUE 2).

The paper's §8.2/§8.3 observe that refresh cost should be amortized by
batching requests to the same source; the service layer applies that
*across queries*: all in-flight queries' refresh plans are merged per
tick, deduplicated, and paid for once, and identical in-flight queries
share one execution (single-flight) backed by a short-TTL result cache.

Both runs see the **same arrival timeline**: one query arrives every
``ARRIVAL_GAP`` simulated seconds, round-robin over 32 clients, and
cached bounds widen with simulated time exactly as TRAPP bound functions
prescribe.  The difference is the serving discipline:

* **serial** — queries are processed one at a time at their arrival
  instants (the pre-service repo behavior): each sees freshly-widened
  bounds, plans its refresh in isolation, pays the full per-source batch
  price (``setup + marginal · k``) and its own source round trip;
* **concurrent** — each round's 32 queries (one per client, arrivals
  within one batch window) are in flight together: overlapping refresh
  plans coalesce in the scheduler into one amortized batch per source,
  duplicates single-flight, and each tick pays one round trip.

Source round trips are simulated at ``BENCH_SERVICE_DELAY`` seconds
(default 2 ms) in both runs — serial sleeps per request, the scheduler
per tick — so the wall-clock comparison reflects what coalescing buys,
not just the cost-model arithmetic.

Acceptance (full size): total refresh cost strictly below serial, and
query throughput ≥ 3×.  Results land in ``BENCH_concurrent_service.json``.

**Mixed-workload sweep** (ISSUE 6): the same serial-vs-concurrent
comparison over the *full query surface* — plain aggregates, GROUP BY,
TOP-N, MEDIAN, and links ⋈ nodes joins — against a two-replica cache
group, sweeping the client count.  Both sides run the identical scripts
through the one shared step protocol (:func:`repro.sql.steps.plan_steps`);
the serial baseline pays each query's batched refresh alone on one
pinned replica, the service coalesces across queries, classes, and
replicas.  Acceptance: coalesced refresh cost per answer strictly below
serial at every swept point with ≥ 8 clients.  Results merge into the
``mixed`` section of the same JSON.

``python benchmarks/bench_concurrent_service.py --smoke`` runs the CI
profile: reduced sizes plus a deterministic baseline tripwire — the
serial mixed cost per answer is pure cost-model arithmetic, so it must
stay within ``SMOKE_REGRESSION_LIMIT`` of the committed
``smoke_baseline`` on any machine (``--record-baseline`` refreshes it).

Environment knobs: ``BENCH_SERVICE_CLIENTS`` (32),
``BENCH_SERVICE_QUERIES`` per client (6), ``BENCH_SERVICE_LINKS`` (240),
``BENCH_SERVICE_DELAY`` (0.002), ``BENCH_SERVICE_MIN_SPEEDUP`` (3.0 —
CI smoke runs shrink the workload and relax this floor),
``BENCH_SERVICE_MIXED_CLIENTS`` ("2,8,16"), ``BENCH_SERVICE_MIXED_QUERIES``
(4), ``BENCH_SERVICE_MIXED_LINKS`` (120), ``BENCH_SERVICE_SMOKE`` (0).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.tables import banner, print_table
from repro.core.refresh.base import RefreshPlan
from repro.extensions.batching import BatchedCostModel
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.sql.compiler import compile_statement
from repro.sql.parser import parse_statement
from repro.sql.steps import plan_steps
from repro.telemetry import summarize_snapshot
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.service import (
    closed_loop_scripts,
    mixed_scripts,
    mixed_service_system,
)

SMOKE = os.environ.get("BENCH_SERVICE_SMOKE", "0") == "1"
CLIENTS = int(os.environ.get("BENCH_SERVICE_CLIENTS", "32"))
QUERIES_PER_CLIENT = int(os.environ.get("BENCH_SERVICE_QUERIES", "6"))
N_LINKS = int(os.environ.get("BENCH_SERVICE_LINKS", "240"))
NETWORK_DELAY = float(os.environ.get("BENCH_SERVICE_DELAY", "0.002"))
MIN_SPEEDUP = float(os.environ.get("BENCH_SERVICE_MIN_SPEEDUP", "3.0"))
MIXED_CLIENT_SWEEP = tuple(
    int(c)
    for c in os.environ.get(
        "BENCH_SERVICE_MIXED_CLIENTS", "2,8" if SMOKE else "2,8,16"
    ).split(",")
)
MIXED_QUERIES = int(
    os.environ.get("BENCH_SERVICE_MIXED_QUERIES", "2" if SMOKE else "4")
)
MIXED_LINKS = int(
    os.environ.get("BENCH_SERVICE_MIXED_LINKS", "60" if SMOKE else "120")
)
MIXED_CACHES = 2
#: CI guard: smoke serial mixed cost-per-answer vs the committed baseline
#: (pure cost-model arithmetic — deterministic on any machine).
SMOKE_REGRESSION_LIMIT = 1.5
SEED = 20001107
#: Simulated seconds between consecutive query arrivals (staleness accrual).
ARRIVAL_GAP = 2.0
BOUND_AGE = 100.0
CACHE_ID = "monitor"
RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_concurrent_service.json"
)

COST_MODEL = BatchedCostModel(setup=5.0, marginal=1.0)


def _load_results() -> dict:
    if RESULTS_PATH.exists():
        try:
            return json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def _merge_results(updates: dict) -> None:
    """Merge one section into the results file, preserving the others."""
    results = _load_results()
    results.update(updates)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def build_system() -> TrappSystem:
    """A deterministic deployment; built identically for both runs."""
    rng = random.Random(SEED)
    system = TrappSystem()
    source = system.add_source("net")
    n_nodes = max(2, N_LINKS // 3)
    source.add_table(
        build_master_table(generate_topology(n_nodes, N_LINKS, rng), rng)
    )
    cache = system.add_cache(CACHE_ID)
    cache.subscribe_table(source, "links")
    system.clock.advance(BOUND_AGE)
    cache.sync_bounds()
    return system


def make_scripts(system: TrappSystem):
    return closed_loop_scripts(
        system.cache(CACHE_ID).table("links"),
        "traffic",
        n_clients=CLIENTS,
        queries_per_client=QUERIES_PER_CLIENT,
        seed=SEED,
        overlap=0.8,
    )


def rounds_of(scripts) -> list[list[tuple[str, str]]]:
    """Arrival order: round r = each client's r-th query, round-robin."""
    return [
        [(script.client_id, script.sqls[r]) for script in scripts]
        for r in range(QUERIES_PER_CLIENT)
    ]


# ----------------------------------------------------------------------
def run_serial(scripts) -> dict:
    """One query at a time, each at its own arrival instant."""
    system = build_system()
    cache = system.cache(CACHE_ID)
    executor = system.executor_for(CACHE_ID)
    total_cost = 0.0
    source_requests = 0
    completed = 0
    start = time.perf_counter()
    for queries in rounds_of(scripts):
        for _client_id, sql in queries:
            system.clock.advance(ARRIVAL_GAP)
            cache.sync_bounds()
            plan = compile_statement(parse_statement(sql), cache.catalog)
            steps = executor.execute_steps(
                plan.table, plan.aggregate, plan.column, plan.constraint,
                plan.predicate,
            )
            try:
                request = next(steps)
                while True:
                    receipt = cache.refresh_batched(
                        request.table,
                        request.plan.tids,
                        batch_cost=lambda sid, k: COST_MODEL.setup
                        + COST_MODEL.marginal * k,
                    )
                    total_cost += receipt.total_cost
                    source_requests += receipt.requests_sent
                    if NETWORK_DELAY > 0:
                        time.sleep(NETWORK_DELAY * receipt.requests_sent)
                    request = steps.send(
                        RefreshPlan(request.plan.tids, receipt.total_cost)
                    )
            except StopIteration:
                completed += 1
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "queries": completed,
        "qps": completed / seconds,
        "refresh_cost": total_cost,
        "source_requests": source_requests,
    }


async def _run_concurrent(scripts) -> dict:
    system = build_system()
    cache = system.cache(CACHE_ID)
    service = QueryService(
        system,
        max_inflight=max(64, CLIENTS * 2),
        max_inflight_per_client=2,
        cost_model=COST_MODEL,
        network_delay=NETWORK_DELAY,
        result_ttl=1.0,
    )
    completed = 0
    start = time.perf_counter()
    for queries in rounds_of(scripts):
        # The whole round's arrivals fall inside one batching window; the
        # same total simulated time passes as in the serial run.
        system.clock.advance(ARRIVAL_GAP * len(queries))
        cache.sync_bounds()
        results = await asyncio.gather(
            *(
                service.query(CACHE_ID, sql, client_id=client_id)
                for client_id, sql in queries
            )
        )
        completed += len(results)
    seconds = time.perf_counter() - start
    stats = service.stats()
    return {
        "seconds": seconds,
        "queries": completed,
        "qps": completed / seconds,
        "refresh_cost": stats["scheduler"]["total_cost_paid"],
        "source_requests": stats["scheduler"]["source_requests"],
        "ticks": stats["scheduler"]["ticks"],
        "tuples_requested": stats["scheduler"]["tuples_requested"],
        "tuples_refreshed": stats["scheduler"]["tuples_refreshed"],
        "result_cache_hits": stats["result_cache"]["hits"],
        "singleflight_joins": stats["singleflight_joins"],
    }


def run_concurrent(scripts) -> dict:
    return asyncio.run(_run_concurrent(scripts))


# ----------------------------------------------------------------------
def test_concurrent_service_coalescing_win():
    scripts = make_scripts(build_system())
    serial = run_serial(scripts)
    concurrent = run_concurrent(scripts)

    speedup = serial["seconds"] / concurrent["seconds"]
    cost_ratio = concurrent["refresh_cost"] / serial["refresh_cost"]

    banner(
        f"Concurrent service vs serial — {CLIENTS} clients x "
        f"{QUERIES_PER_CLIENT} queries, {N_LINKS} links"
    )
    print_table(
        ["metric", "serial", "concurrent"],
        [
            ("wall seconds", serial["seconds"], concurrent["seconds"]),
            ("queries/second", serial["qps"], concurrent["qps"]),
            ("total refresh cost", serial["refresh_cost"], concurrent["refresh_cost"]),
            ("source requests", serial["source_requests"], concurrent["source_requests"]),
        ],
    )
    print(
        f"throughput speedup {speedup:.2f}x, refresh cost ratio "
        f"{cost_ratio:.3f} (ticks={concurrent['ticks']}, result cache "
        f"hits={concurrent['result_cache_hits']}, single-flight "
        f"joins={concurrent['singleflight_joins']})"
    )

    results = {
        "benchmark": "concurrent_service",
        "clients": CLIENTS,
        "queries_per_client": QUERIES_PER_CLIENT,
        "n_links": N_LINKS,
        "network_delay_seconds": NETWORK_DELAY,
        "arrival_gap_seconds": ARRIVAL_GAP,
        "cost_model": {"setup": COST_MODEL.setup, "marginal": COST_MODEL.marginal},
        "serial": serial,
        "concurrent": concurrent,
        "throughput_speedup": speedup,
        "refresh_cost_ratio": cost_ratio,
    }
    _merge_results(results)

    assert concurrent["refresh_cost"] < serial["refresh_cost"], (
        "coalescing must pay strictly less total refresh cost than the "
        f"serial baseline ({concurrent['refresh_cost']:g} vs "
        f"{serial['refresh_cost']:g})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"concurrent service must be >= {MIN_SPEEDUP:g}x serial throughput, "
        f"got {speedup:.2f}x"
    )


# ----------------------------------------------------------------------
# Mixed-workload sweep: the full query surface against a cache group
# ----------------------------------------------------------------------
def _mixed_setup(n_clients: int):
    """A fresh group deployment plus the scripts sized against it.

    Built identically for the serial and concurrent runs (same seed ⇒
    same tables, bounds, and budgets).
    """
    system, model = mixed_service_system(
        n_caches=MIXED_CACHES, n_links=MIXED_LINKS, seed=SEED % 100_000
    )
    cache = system.cache("edge/0")
    scripts = mixed_scripts(
        cache.table("links"),
        cache.table("nodes"),
        n_clients=n_clients,
        queries_per_client=MIXED_QUERIES,
        seed=SEED % 100_000,
    )
    return system, model, scripts


def _mixed_rounds(scripts) -> list[list[tuple[str, str]]]:
    return [
        [(script.client_id, script.sqls[r]) for script in scripts]
        for r in range(MIXED_QUERIES)
    ]


def run_serial_mixed(n_clients: int) -> dict:
    """Every statement class, one query at a time on one pinned replica."""
    system, model, scripts = _mixed_setup(n_clients)
    cache = system.cache("edge/0")
    executor = system.executor_for("edge/0")
    total_cost = 0.0
    source_requests = 0
    completed = 0
    for queries in _mixed_rounds(scripts):
        for _client_id, sql in queries:
            system.clock.advance(ARRIVAL_GAP)
            cache.sync_bounds()
            plan = compile_statement(parse_statement(sql), cache.catalog)
            steps = plan_steps(plan, executor)
            try:
                request = next(steps)
                while True:
                    receipt = cache.refresh_batched(
                        request.table,
                        request.plan.tids,
                        batch_cost=lambda sid, k: model.setup
                        + model.marginal * k,
                    )
                    total_cost += receipt.total_cost
                    source_requests += receipt.requests_sent
                    request = steps.send(
                        RefreshPlan(request.plan.tids, receipt.total_cost)
                    )
            except StopIteration:
                completed += 1
    return {
        "clients": n_clients,
        "answers": completed,
        "refresh_cost": total_cost,
        "cost_per_answer": total_cost / completed,
        "source_requests": source_requests,
    }


async def _run_concurrent_mixed(n_clients: int) -> dict:
    system, model, scripts = _mixed_setup(n_clients)
    service = QueryService(
        system,
        max_inflight=max(64, n_clients * 2),
        max_inflight_per_client=2,
        cost_model=model,
        result_ttl=1.0,
    )
    completed = 0
    for queries in _mixed_rounds(scripts):
        system.clock.advance(ARRIVAL_GAP * len(queries))
        for cache in system.group("edge"):
            cache.sync_bounds()
        results = await asyncio.gather(
            *(
                service.query("edge", sql, client_id=client_id)
                for client_id, sql in queries
            )
        )
        completed += len(results)
    stats = service.stats()
    total_cost = stats["scheduler"]["total_cost_paid"]
    return {
        "clients": n_clients,
        "answers": completed,
        "refresh_cost": total_cost,
        "cost_per_answer": total_cost / completed,
        "source_requests": stats["scheduler"]["source_requests"],
        "result_cache_hits": stats["result_cache"]["hits"],
        "singleflight_joins": stats["singleflight_joins"],
    }


def test_mixed_workload_coalescing_win():
    series = []
    for n_clients in MIXED_CLIENT_SWEEP:
        serial = run_serial_mixed(n_clients)
        concurrent = asyncio.run(_run_concurrent_mixed(n_clients))
        series.append(
            {
                "clients": n_clients,
                "serial": serial,
                "concurrent": concurrent,
                "cost_per_answer_ratio": concurrent["cost_per_answer"]
                / serial["cost_per_answer"],
            }
        )

    banner(
        f"Mixed workload (joins + GROUP BY + TOP-N + MEDIAN) — "
        f"{MIXED_LINKS} links, {MIXED_CACHES} replicas, "
        f"{MIXED_QUERIES} queries/client"
    )
    print_table(
        ["clients", "serial cost/ans", "concurrent cost/ans", "ratio"],
        [
            (
                point["clients"],
                point["serial"]["cost_per_answer"],
                point["concurrent"]["cost_per_answer"],
                point["cost_per_answer_ratio"],
            )
            for point in series
        ],
    )

    _merge_results(
        {
            "mixed": {
                "links": MIXED_LINKS,
                "caches": MIXED_CACHES,
                "queries_per_client": MIXED_QUERIES,
                "smoke": SMOKE,
                "series": series,
            }
        }
    )

    for point in series:
        if point["clients"] >= 8:
            assert point["cost_per_answer_ratio"] < 1.0, (
                f"at {point['clients']} clients the coalesced mixed "
                f"workload must pay strictly less refresh per answer than "
                f"serial (ratio {point['cost_per_answer_ratio']:.3f})"
            )
    if SMOKE:
        _check_smoke_regression(series[-1]["serial"]["cost_per_answer"])


def _check_smoke_regression(serial_cost_per_answer: float) -> None:
    """CI tripwire: smoke serial cost-per-answer vs the committed baseline.

    The serial mixed run is pure cost-model arithmetic over a seeded
    workload — identical on every machine — so drifting past the margin
    means planner or executor behavior changed, not the runner.
    """
    baseline = _load_results().get("smoke_baseline")
    if not baseline or baseline.get("links") != MIXED_LINKS:
        return
    limit = baseline["serial_cost_per_answer"] * SMOKE_REGRESSION_LIMIT
    assert serial_cost_per_answer <= limit, (
        f"smoke serial mixed cost per answer {serial_cost_per_answer:.3f} "
        f"regressed beyond {SMOKE_REGRESSION_LIMIT}x the committed "
        f"baseline {baseline['serial_cost_per_answer']:.3f}"
    )


#: Families persisted in the committed ``telemetry`` section (PR 7):
#: what the service pays (refresh cost, per-source batches) and what it
#: saves (result cache, single-flight) on the mixed workload.
TELEMETRY_PREFIXES = (
    "trapp_queries_total",
    "trapp_service_events_total",
    "trapp_routed_queries_total",
    "trapp_result_cache_events_total",
    "trapp_scheduler_events_total",
    "trapp_scheduler_plans_per_tick",
    "trapp_refresh_cost",
    "trapp_source_batch_size",
)


def _telemetry_section() -> dict:
    """One compact instrumented pass of the mixed workload.

    Fixed sizes, independent of the env knobs, so ``--telemetry``
    refreshes only the ``telemetry`` key of the results file without
    touching the committed full-run sections.
    """

    async def go() -> dict:
        system, model = mixed_service_system(
            n_caches=MIXED_CACHES, n_links=60, seed=SEED % 100_000
        )
        cache = system.cache("edge/0")
        scripts = mixed_scripts(
            cache.table("links"),
            cache.table("nodes"),
            n_clients=8,
            queries_per_client=2,
            seed=SEED % 100_000,
        )
        service = QueryService(
            system, max_inflight=64, cost_model=model, result_ttl=1.0
        )
        for round_index in range(2):
            system.clock.advance(ARRIVAL_GAP * len(scripts))
            for replica in system.group("edge"):
                replica.sync_bounds()
            await asyncio.gather(
                *(
                    service.query(
                        "edge", script.sqls[round_index],
                        client_id=script.client_id,
                    )
                    for script in scripts
                )
            )
        return summarize_snapshot(
            service.telemetry.snapshot(), prefixes=TELEMETRY_PREFIXES
        )

    return asyncio.run(go())


def _record_smoke_baseline() -> None:
    """Refresh the committed smoke baseline from the current smoke numbers."""
    results = _load_results()
    mixed = results.get("mixed")
    if mixed and mixed.get("smoke"):
        _merge_results(
            {
                "smoke_baseline": {
                    "links": mixed["links"],
                    "serial_cost_per_answer": mixed["series"][-1]["serial"][
                        "cost_per_answer"
                    ],
                }
            }
        )


if __name__ == "__main__":
    import argparse
    import subprocess
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: reduced sizes, mixed sweep only, baseline tripwire",
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
        _merge_results({"telemetry": _telemetry_section()})
        raise SystemExit(0)
    if args.smoke and not SMOKE:
        # Re-exec so the module-level knobs pick the smoke profile up.
        env = dict(os.environ, BENCH_SERVICE_SMOKE="1")
        code = subprocess.call(
            [sys.executable, __file__, "--smoke"]
            + (["--record-baseline"] if args.record_baseline else []),
            env=env,
        )
        raise SystemExit(code)
    selector = ["-k", "mixed"] if SMOKE else []
    code = pytest.main([__file__, "-q", "-s"] + selector)
    if code == 0 and SMOKE and args.record_baseline:
        _record_smoke_baseline()
    raise SystemExit(code)
