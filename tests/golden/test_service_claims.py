"""Population (ii): the service-era cost claims of PRs 2–10, pinned.

Coalescing, sharding, cache fan-out, fault tolerance, elasticity and
the endpoint-index windows each claimed a *cost* figure — refresh cost
per answered query on a simulated clock, counts, fractions — which is
seeded arithmetic, so each is a test at one committed size.  Counters
are read from the telemetry registry the wire serves.  Claims that were
wall time are not here (``docs/PERFORMANCE.md`` keeps their dated
headlines; wall time is ``benchmarks/e2e/``'s job).
"""

from __future__ import annotations

import asyncio
import math
import random

import numpy as np

from repro.core.bound import Bound
from repro.core.refresh.base import RefreshPlan
from repro.core.refresh.costs import ColumnCostModel
from repro.faults import RetryPolicy
from repro.predicates.ast import And, ColumnRef, Comparison, Literal
from repro.predicates.batch import (
    ColumnarClassification,
    classify_dense,
    classify_report,
)
from repro.service import QueryService
from repro.sql.compiler import compile_statement
from repro.sql.parser import parse_statement
from repro.sql.steps import plan_steps
from repro.storage.columnar import harvest_candidates
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.workloads import GroupAutoscaler
from repro.workloads.chaos import ChaosScenario, chaos_injector
from repro.workloads.service import (
    mixed_scripts,
    mixed_service_system,
    regional_cache_system,
    run_closed_loop,
    sharded_service_system,
    sharded_sum_scripts,
)

SEED = 20000521


def _scheduler(service, event: str) -> int:
    return int(
        service.telemetry.registry.value_of(
            "trapp_scheduler_events_total", event=event
        )
    )


def _cost_paid(service) -> float:
    return service.telemetry.registry.value_of("trapp_refresh_cost_paid_total")


async def _serve(service, target, caches, scripts, rounds=1, advance=5.0, **query):
    """Closed-loop passes of ``scripts`` against cache or group ``target``.

    Before each pass the clock advances and every replica re-evaluates
    its bounds (zero-width bounds need no refresh).  Returns the
    answers and the error count.
    """
    async def issue(client_id: str, sql: str):
        return await service.query(target, sql, client_id=client_id, **query)

    answers, errors = [], 0
    for _ in range(rounds):
        service.system.clock.advance(advance)
        for cache in caches:
            cache.sync_bounds()
        result = await run_closed_loop(issue, scripts)
        answers += result.answers
        errors += result.errors
    return answers, errors


# ----------------------------------------------------------------------
# PR 2 / PR 6: cross-query coalescing on the mixed statement surface
# ----------------------------------------------------------------------
MIXED_CLIENTS = 8
MIXED_ROUNDS = 2
#: Simulated seconds between consecutive arrivals (staleness accrual).
ARRIVAL_GAP = 2.0


def _mixed_setup():
    """SUM/AVG, GROUP BY, TOP-N, MEDIAN and joins over a 2-replica
    group; built identically for the serial and the coalesced run."""
    system, model = mixed_service_system(n_caches=2, n_links=60, seed=1107)
    cache = system.cache("edge/0")
    scripts = mixed_scripts(
        cache.table("links"),
        cache.table("nodes"),
        n_clients=MIXED_CLIENTS,
        queries_per_client=MIXED_ROUNDS,
        seed=1107,
    )
    return system, model, scripts


def _serial_mixed_cost_per_answer() -> float:
    """One query at a time on one pinned replica, each paying its own
    batched refresh — the pre-service discipline."""
    system, model, scripts = _mixed_setup()
    cache = system.cache("edge/0")
    executor = system.executor_for("edge/0")
    total_cost = 0.0
    for round_index in range(MIXED_ROUNDS):
        for script in scripts:
            system.clock.advance(ARRIVAL_GAP)
            cache.sync_bounds()
            plan = compile_statement(
                parse_statement(script.sqls[round_index]), cache.catalog
            )
            steps = plan_steps(plan, executor)
            try:
                request = next(steps)
                while True:
                    receipt = cache.refresh_batched(
                        request.table,
                        request.plan.tids,
                        batch_cost=lambda sid, k: model.setup + model.marginal * k,
                    )
                    total_cost += receipt.total_cost
                    request = steps.send(
                        RefreshPlan(request.plan.tids, receipt.total_cost)
                    )
            except StopIteration:
                pass
    return total_cost / (MIXED_CLIENTS * MIXED_ROUNDS)


async def _coalesced_mixed_cost_per_answer() -> float:
    system, model, scripts = _mixed_setup()
    service = QueryService(
        system,
        max_inflight=64,
        max_inflight_per_client=2,
        cost_model=model,
        result_ttl=1.0,
    )
    for round_index in range(MIXED_ROUNDS):
        # The whole round arrives inside one batching window; the same
        # total simulated time passes as in the serial run.
        system.clock.advance(ARRIVAL_GAP * len(scripts))
        for cache in system.group("edge"):
            cache.sync_bounds()
        await asyncio.gather(
            *(
                service.query(
                    "edge", script.sqls[round_index], client_id=script.client_id
                )
                for script in scripts
            )
        )
    return _cost_paid(service) / (MIXED_CLIENTS * MIXED_ROUNDS)


def test_mixed_workload_coalescing(golden):
    serial = _serial_mixed_cost_per_answer()
    coalesced = asyncio.run(_coalesced_mixed_cost_per_answer())
    golden.check("coalescing.mixed.serial_cost_per_answer", serial)
    golden.check("coalescing.mixed.coalesced_cost_per_answer", coalesced)
    golden.check("coalescing.mixed.ratio", coalesced / serial)
    assert coalesced < serial


# ----------------------------------------------------------------------
# PR 4: cost per answer against shard fan-in
# ----------------------------------------------------------------------
FANINS = (1, 2, 4, 8)


async def _run_fanin(n_shards: int) -> dict:
    system, model = sharded_service_system(n_shards, n_links=240, seed=SEED)
    service = QueryService(
        system, max_inflight=64, cost_model=model, adaptive_tick=True
    )
    cache = system.cache("monitor")
    scripts = sharded_sum_scripts(cache.table("links"), 6, 3, seed=SEED)
    answers, errors = await _serve(
        service, "monitor", [cache], scripts, rounds=2,
        cost=ColumnCostModel("cost"),
    )
    assert errors == 0
    return {
        "cost_per_answer": _cost_paid(service) / len(answers),
        "source_requests": _scheduler(service, "source_request"),
        "tuples_refreshed": _scheduler(service, "tuple_refreshed"),
    }


def test_cost_per_answer_falls_with_shard_fanin(golden):
    runs = [asyncio.run(_run_fanin(fanin)) for fanin in FANINS]
    costs = [run["cost_per_answer"] for run in runs]
    golden.check("sharding.cost_per_answer", costs)
    golden.check("sharding.source_requests", [r["source_requests"] for r in runs])
    golden.check("sharding.tuples_refreshed", [r["tuples_refreshed"] for r in runs])
    # The cheapest shard's marginal falls as fan-in grows (the mean is
    # fan-in-independent), so amortization must improve.
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[0] >= 1.3 * costs[-1]
    # Plans span several shards, yet one message per contacted shard
    # per tick — not one per tuple.
    for run in runs[1:]:
        assert run["source_requests"] < run["tuples_refreshed"]


# ----------------------------------------------------------------------
# PR 5: cost per answer against cache fan-out
# ----------------------------------------------------------------------
async def _run_fanout(n_caches: int, coalesced: bool) -> dict:
    """``coalesced``: fan-out on, one scheduler merging all replicas'
    plans per source.  Otherwise each replica schedules and pays alone."""
    system, model = regional_cache_system(
        n_caches, n_shards=4, n_links=240, seed=SEED, group_id="edge",
        fanout=coalesced,
    )
    service = QueryService(
        system, max_inflight=64, cost_model=model, adaptive_tick=True,
        cross_cache=coalesced,
    )
    group = system.group("edge")
    scripts = sharded_sum_scripts(
        group.cache("edge/0").table("links"), 8, 3, seed=SEED
    )
    answers, errors = await _serve(service, "edge", group, scripts, rounds=2)
    assert errors == 0
    return {
        "cost_per_answer": _cost_paid(service) / len(answers),
        "source_requests": _scheduler(service, "source_request"),
        "tuples_refreshed": _scheduler(service, "tuple_refreshed"),
        "cross_cache_merges": _scheduler(service, "cross_cache_merge"),
        "leader_redirects": _scheduler(service, "leader_redirect"),
    }


def test_cost_per_answer_falls_with_cache_fanout(golden):
    one = asyncio.run(_run_fanout(1, coalesced=True))
    four = asyncio.run(_run_fanout(4, coalesced=True))
    independent = asyncio.run(_run_fanout(4, coalesced=False))
    golden.check(
        "fanout.coalesced.cost_per_answer",
        [one["cost_per_answer"], four["cost_per_answer"]],
    )
    golden.check("fanout.independent.cost_per_answer.4", independent["cost_per_answer"])
    golden.check("fanout.coalesced.cross_cache_merges.4", four["cross_cache_merges"])
    golden.check("fanout.coalesced.leader_redirects.4", four["leader_redirects"])
    # Cheapest-replica dispatch and group-wide tightening beat one cache …
    assert four["cost_per_answer"] <= one["cost_per_answer"]
    # … and beat four schedulers each re-paying the setups.
    assert 1.5 * four["cost_per_answer"] <= independent["cost_per_answer"]
    # The mechanisms, not just the outcome.
    assert four["cross_cache_merges"] > 0
    assert four["leader_redirects"] > 0
    assert four["source_requests"] < four["tuples_refreshed"]


# ----------------------------------------------------------------------
# PR 8: bounded degradation under injected faults
# ----------------------------------------------------------------------
OUTAGE_RATES = (0.0, 0.2)
CHAOS_ROUNDS = 3
#: Off-grid from the 20 s chaos window, so rounds sample different faults.
ROUND_ADVANCE = 7.0


async def _run_outage_rate(outage_rate: float) -> dict:
    system, model = regional_cache_system(
        2, n_shards=4, n_links=240, seed=SEED, group_id="edge", fanout=True
    )
    scenario = ChaosScenario(
        seed=SEED,
        start=system.clock.now(),
        duration=(CHAOS_ROUNDS + 1) * ROUND_ADVANCE + 100.0,
        outage_rate=outage_rate,
        latency_rate=outage_rate / 2,
    )
    service = QueryService(
        system, max_inflight=64, cost_model=model, adaptive_tick=True,
        cross_cache=True,
        fault_injector=chaos_injector(system, scenario),
        # Deterministic backoff, no real sleeping.
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
    )
    truth = math.fsum(
        value
        for shard in range(4)
        for value in system.source(f"net/{shard}")
        .table("links").columns.endpoints("traffic")[0]
    )
    group = system.group("edge")
    scripts = sharded_sum_scripts(
        group.cache("edge/0").table("links"), 6, 3, seed=SEED
    )
    results, errors = await _serve(
        service, "edge", group, scripts, rounds=CHAOS_ROUNDS, advance=ROUND_ADVANCE
    )
    answers = [result.answer for result in results]
    issued = len(answers) + errors
    return {
        "availability": len(answers) / issued,
        "degraded_share": sum(a.degraded for a in answers) / issued,
        "mean_width": math.fsum(a.width for a in answers) / len(answers),
        "containment_violations": sum(
            not a.bound.contains(truth) for a in answers
        ),
        "source_failures": int(
            service.telemetry.registry.value_of(
                "trapp_fault_events_total", event="source_failure"
            )
        ),
    }


def test_availability_survives_outages(golden):
    clean, faulted = (asyncio.run(_run_outage_rate(rate)) for rate in OUTAGE_RATES)
    for rate, run in zip(OUTAGE_RATES, (clean, faulted)):
        key = f"faults.outage_{rate:g}"
        golden.check(f"{key}.availability", run["availability"])
        golden.check(f"{key}.degraded_share", run["degraded_share"])
        golden.check(
            f"{key}.width_inflation", run["mean_width"] / clean["mean_width"]
        )
        # Degraded or not, wider than asked or not: never wrong.
        assert run["containment_violations"] == 0
        assert run["availability"] >= 0.99
    # Not vacuous: the schedule produced failures and degraded answers,
    # and precision — not correctness — paid for them.
    assert clean["source_failures"] == 0 and clean["degraded_share"] == 0
    assert faulted["source_failures"] > 0
    assert faulted["degraded_share"] > 0
    assert faulted["mean_width"] >= clean["mean_width"]


# ----------------------------------------------------------------------
# PR 9: an autoscaled group under a client-count ramp
# ----------------------------------------------------------------------
#: Clients per phase — quiet, spike, quiet.  One autoscaler step per
#: phase; the quiet tail must outlast the spike's admissions, because a
#: detach sheds one replica per step — and by one phase more, so the
#: last step asks to go below the floor and is refused.
RAMP = (3, 8, 12, 4, 2, 1)
START_REPLICAS = 2


async def _run_ramp() -> dict:
    system, model = regional_cache_system(
        START_REPLICAS, n_shards=2, n_links=160, seed=SEED, group_id="edge",
        fanout=True,
    )
    service = QueryService(
        system, max_inflight=64, cost_model=model, adaptive_tick=True,
        cross_cache=True,
    )
    group = system.group("edge")
    table = group.cache("edge/0").table("links")
    scaler = GroupAutoscaler(
        service, "edge", min_replicas=START_REPLICAS, max_replicas=5,
        high_watermark=8.0, low_watermark=3.0,
    )

    async def issue(client_id: str, sql: str):
        return await service.query("edge", sql, client_id=client_id)

    answers = re_stick_probes = re_stick_failures = 0
    members = []
    for phase, n_clients in enumerate(RAMP):
        system.clock.advance(5.0)
        for cache in group:
            cache.sync_bounds()
        scripts = sharded_sum_scripts(table, n_clients, 2, seed=SEED + phase)
        result = await run_closed_loop(issue, scripts)
        assert result.errors == 0
        answers += result.completed
        if await scaler.step() is not None:
            # Membership changed: replay one query per client.  Sticky
            # routing must land every client — those of a just-departed
            # replica included — on a live survivor first try.
            probes = sharded_sum_scripts(table, n_clients, 1, seed=SEED + phase)
            probed = await run_closed_loop(issue, probes)
            re_stick_probes += probed.completed + probed.errors
            re_stick_failures += probed.errors
            answers += probed.completed
        members.append(len(group.cache_ids()))
    transfer_cost = sum(event.transfer_cost for event in scaler.events)
    return {
        "events": scaler.events,
        "members": members,
        "re_stick_probes": re_stick_probes,
        "re_stick_failures": re_stick_failures,
        "transfer_cost": transfer_cost,
        # Snapshot transfers are charged to the same meter as refreshes:
        # elasticity is worth having only if the all-in bill stays near
        # the static group's.
        "cost_per_answer": (_cost_paid(service) + transfer_cost) / answers,
    }


def test_autoscaler_tracks_the_ramp(golden):
    run = asyncio.run(_run_ramp())
    admits = [e for e in run["events"] if e.action == "admit"]
    detaches = [e for e in run["events"] if e.action == "detach"]
    golden.check("elastic.admits", len(admits))
    golden.check("elastic.detaches", len(detaches))
    golden.check("elastic.members_by_phase", run["members"])
    golden.check("elastic.re_stick_failures", run["re_stick_failures"])
    golden.check("elastic.snapshot_transfer_cost", run["transfer_cost"])
    golden.check("elastic.cost_per_answer", run["cost_per_answer"])
    # Growth on the spike, shrink after it.
    assert admits and detaches
    assert max(run["members"]) > START_REPLICAS
    assert run["members"][-1] == START_REPLICAS
    # No membership change was client-visible.
    assert run["re_stick_probes"] > 0
    assert run["re_stick_failures"] == 0
    # Every joiner was snapshot-initialized, and paid for it.
    assert all(event.transfer_cost > 0 for event in admits)


# ----------------------------------------------------------------------
# PR 10: endpoint-index windows against the dense sweep
# ----------------------------------------------------------------------
INDEX_ROWS = 20_000
STRADDLE = 0.01


def _selective_table() -> tuple[Table, float]:
    """Bound centres uniform over ``[0, n)``, widths ``≈ STRADDLE · n``;
    the constant ``c = n(1 − 2s)`` leaves ~1 % of the bounds astride it
    and the vast majority strictly below — "most tuples are nowhere near
    any predicate constant"."""
    rng = random.Random(SEED)
    table = Table("sweep", Schema.of(x="bounded", cost="exact"))
    width = STRADDLE * INDEX_ROWS
    table.insert_many(
        {
            "x": Bound(center - w / 2, center + w / 2),
            "cost": float(rng.randint(1, 5)),
        }
        for center, w in (
            (rng.uniform(0.0, INDEX_ROWS), width * rng.uniform(0.75, 1.25))
            for _ in range(INDEX_ROWS)
        )
    )
    return table, INDEX_ROWS * (1.0 - 2.0 * STRADDLE)


def _assert_routes_agree(store, predicate):
    """Masks, answer arrays and harvested vectors of the window route
    equal the dense route's, bit for bit."""
    report = classify_report(store, predicate)
    assert report.used_index
    certain, possible = classify_dense(store, predicate)
    assert np.array_equal(report.certain, certain)
    assert np.array_equal(report.possible, possible)
    dense_pair = (np.flatnonzero(certain), np.flatnonzero(possible & ~certain))
    ones = np.ones(len(dense_pair[0]) + len(dense_pair[1]))
    via_windows = harvest_candidates(store, "x", ones, positions=report.positions)
    via_masks = harvest_candidates(store, "x", ones, positions=dense_pair)
    for field in ("tids", "widths", "costs", "order"):
        assert np.array_equal(
            getattr(via_windows, field), getattr(via_masks, field)
        ), field
    ours = ColumnarClassification.from_positions(store, report.positions, "x")
    theirs = ColumnarClassification.from_positions(store, dense_pair, "x")
    for field in ("plus_lo", "plus_hi", "maybe_lo", "maybe_hi"):
        assert np.array_equal(getattr(ours, field), getattr(theirs, field)), field
    return report, dense_pair


def test_index_windows_match_the_dense_sweep(golden):
    table, c = _selective_table()
    store = table.columns
    leaf = Comparison(ColumnRef("x"), ">", Literal(c))
    report, (_, maybe) = _assert_routes_agree(store, leaf)
    golden.check("index.window_fraction", report.window_fraction)
    golden.check("index.straddle_tuples", len(maybe))
    # A narrow band c < x < c + 4w, its right edge written with a
    # negated scale: And-composition and the sign-flip endpoint swap
    # both run through the window set algebra.
    band = And(
        leaf,
        Comparison(
            ColumnRef("x", scale=-1.0), ">", Literal(-(c + 0.04 * INDEX_ROWS))
        ),
    )
    report, _ = _assert_routes_agree(store, band)
    golden.check("index.compound.window_fraction", report.window_fraction)
