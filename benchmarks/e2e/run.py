#!/usr/bin/env python3
"""The end-to-end serving benchmark of the TRAPP reproduction.

One command::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

spawns the server process (``server_main.py``), drives it from this single
process over raw NDJSON on two TCP connections, and prints every metric by
name, unit, value and sample count.  ``--trace 0`` (end-to-end metrics):
set-up (several spawns, median reported), warm-up (discarded), one long
**open-loop** phase on a seeded Poisson schedule at the workload's frozen
rate, the quiesced contract check.  ``--trace 1`` (per-layer metrics): a
shorter open loop, the same kind of schedule again with the span recorder
installed, a **closed-loop** capacity phase, the contract check.  Without
``--workload`` all four workloads run, both passes each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when the contract check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import catalog
    import loadgen
    import oracle
    import tracing
    import workloads
except ModuleNotFoundError as exc:  # no src/ beside the benchmark: nothing to measure
    raise SystemExit(f"benchmarks/e2e needs the repository's src/ tree: {exc}")

OUT = HERE / "out"
#: Server spawns per untraced run (``setup_s`` is their median), by profile.
SETUP_SPAWNS = {"full": 5, "mini": 2}
SERVER_START_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, process, port: int, subscribe_s: float, setup_s: float):
        self.process = process
        self.port = port
        self.subscribe_s = subscribe_s
        #: Spawn of the process to the first successful ``ping``.
        self.setup_s = setup_s

    @classmethod
    async def spawn(
        cls, workload: str, seed: int, profile: str, spans_out: str = "",
        cpu: int | None = None,
    ) -> "Server":
        started = time.perf_counter()
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "server_main.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--profile", profile,
            "--spans-out", spans_out,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 26,  # the master dump is one long line
        )
        if cpu is not None:
            os.sched_setaffinity(process.pid, {cpu})
        try:
            line = await asyncio.wait_for(
                process.stdout.readline(), SERVER_START_TIMEOUT_S
            )
            if not line:
                raise RuntimeError("the server exited before announcing its port")
            hello = json.loads(line)
            await _ping("127.0.0.1", hello["port"])
        except BaseException:
            process.kill()
            await process.wait()
            raise
        return cls(
            process, hello["port"], hello["subscribe_s"],
            time.perf_counter() - started,
        )

    async def command(self, name: str) -> dict:
        self.process.stdin.write(json.dumps({"cmd": name}).encode() + b"\n")
        await self.process.stdin.drain()
        line = await asyncio.wait_for(self.process.stdout.readline(), 60.0)
        if not line:
            raise RuntimeError(f"the server died answering {name!r}")
        return json.loads(line)

    async def stop(self) -> None:
        if self.process.returncode is None:
            try:
                self.process.stdin.write(b'{"cmd": "exit"}\n')
                await self.process.stdin.drain()
                await asyncio.wait_for(self.process.wait(), 30.0)
            except (asyncio.TimeoutError, ConnectionError):
                self.process.kill()
                await self.process.wait()


@contextlib.contextmanager
def _a_core_each():
    """Pin the generator to one allowed CPU; yields another for the server.

    Unpinned, the two busy processes migrate and preempt each other
    whenever anything else wakes, which shows up as run-to-run noise.
    With fewer than two allowed CPUs, or no affinity API, nothing is
    pinned and ``None`` is yielded.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        yield None
        return
    server_cpu, generator_cpu = sorted(allowed)[:2]
    os.sched_setaffinity(0, {generator_cpu})
    try:
        yield server_cpu
    finally:
        os.sched_setaffinity(0, allowed)


async def _ping(host: str, port: int) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(loadgen.encode({"id": 0, "op": "ping"}))
        await writer.drain()
        reply = loadgen.decode(await asyncio.wait_for(reader.readline(), 30.0))
        if not reply.get("ok"):
            raise RuntimeError(f"ping refused: {reply}")
    finally:
        writer.close()
        await writer.wait_closed()


# ----------------------------------------------------------------------
# Registry snapshots
# ----------------------------------------------------------------------
class Counters:
    """The ``metrics`` wire op's document, indexed for deltas."""

    def __init__(self, document: dict) -> None:
        self._families = {f["name"]: f["samples"] for f in document["families"]}

    def _matching(self, name: str, labels: dict):
        for sample in self._families.get(name, ()):
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                yield sample

    def value(self, name: str, **labels) -> float:
        return sum(float(s["value"]) for s in self._matching(name, labels))

    def histogram(self, name: str, **labels) -> tuple[float, float]:
        total = count = 0.0
        for sample in self._matching(name, labels):
            total += float(sample["sum"])
            count += float(sample["count"])
        return total, count


@dataclass
class Delta:
    before: Counters
    after: Counters

    def value(self, name: str, **labels) -> float:
        return self.after.value(name, **labels) - self.before.value(name, **labels)

    def mean(self, name: str, **labels) -> tuple[float | None, int]:
        """Mean observation of a histogram over the interval, and its count."""
        total_b, count_b = self.before.histogram(name, **labels)
        total_a, count_a = self.after.histogram(name, **labels)
        count = count_a - count_b
        return ((total_a - total_b) / count if count else None), int(count)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
@dataclass
class OpenPhase:
    samples: list
    seconds: float
    counters: Delta
    mark_before: dict
    mark_after: dict
    reruns: int
    late_p50_ms: float
    late_p99_ms: float

    @property
    def valid(self) -> bool:
        return self.late_p99_ms <= workloads.MAX_LATE_P99_MS

    @property
    def answered(self) -> list:
        return [s for s in self.samples if s.ok]

    @property
    def speed(self) -> float:
        """Host speed factor of the phase: the median probe time over the
        frozen reference (above 1 = the box ran slower than the reference)."""
        probe_us = self.mark_after.get("probe_p50_us")
        return probe_us / workloads.PROBE_REFERENCE_US if probe_us else 1.0


async def _snapshot(generator) -> Counters:
    return Counters((await generator.call({"op": "metrics"}))["metrics"])


async def measure_open(
    generator, server: Server, workload, seed: int, purpose: str,
    seconds: float, ctx, traced: bool = False,
) -> OpenPhase:
    """One open-loop phase bracketed by counter snapshots and marks.

    A phase the generator itself ran late on (p99 send lateness over the
    limit) says nothing about the server; it is rerun once on a fresh
    schedule and then reported as it is, flagged invalid.
    """
    for attempt in (0, 1):
        schedule = workloads.request_schedule(
            workload, seed, f"{purpose}:{attempt}", seconds, ctx
        )
        before = await _snapshot(generator)
        mark_before = await server.command("mark")
        if traced:
            await server.command("trace_on")
        started = time.perf_counter()
        samples = await generator.open_loop(schedule)
        elapsed = time.perf_counter() - started
        if traced:
            await server.command("trace_off")
        mark_after = await server.command("mark")
        after = await _snapshot(generator)
        late = sorted(s.late * 1e3 for s in samples)
        phase = OpenPhase(
            samples, elapsed, Delta(before, after), mark_before, mark_after,
            attempt, quantile(late, 0.5), quantile(late, 0.99),
        )
        if phase.valid:
            break
    return phase


def quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list (NaN when empty)."""
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class Reading:
    value: float | None
    samples: int = 0
    reason: str = ""
    #: The time as measured, when ``value`` is at the reference host speed.
    raw: float | None = None

    def document(self, name: str) -> dict:
        out = {"value": self.value, "unit": catalog.UNITS[name], "samples": self.samples}
        if self.value is None:
            out["reason"] = self.reason or "not measured"
        if self.raw is not None:
            out["raw"] = self.raw
        return out

    def at_reference_speed(self, speed: float) -> "Reading":
        """Divide a measured time by the host speed factor of its phase."""
        if self.value is not None:
            self.raw = self.value
            self.value = self.value / speed
        return self


def _ratio(numerator: float, denominator: float, reason: str) -> Reading:
    if not denominator:
        return Reading(None, 0, reason)
    return Reading(numerator / denominator, int(denominator))


def end_to_end_metrics(
    setups: list[float], phase: OpenPhase, final_mark: dict
) -> dict[str, Reading]:
    answered = phase.answered
    latencies = sorted(s.latency * 1e3 for s in answered)
    cpu_s = phase.mark_after["cpu_s"] - phase.mark_before["cpu_s"]
    applied = (
        phase.mark_after["updates_applied"] - phase.mark_before["updates_applied"]
    )
    cost = phase.counters.value("trapp_refresh_cost_paid_total")
    speed = phase.speed
    return {
        "setup_s": Reading(statistics.median(setups), len(setups)),
        "query_p50_ms": Reading(
            quantile(latencies, 0.5), len(latencies)
        ).at_reference_speed(speed),
        "server_cpu_ms_per_query": _ratio(
            cpu_s * 1e3, len(answered), "no answers"
        ).at_reference_speed(speed),
        "refresh_cost_per_answer": _ratio(cost, len(answered), "no answers"),
        "peak_rss_mb": Reading(final_mark["maxrss_kb"] / 1024.0, 1),
        "update_p50_us": Reading(
            phase.mark_after["update_p50_us"], phase.mark_after["update_samples"],
            "no master updates were due in the phase",
        ).at_reference_speed(speed),
        "updates_applied_per_s": Reading(applied / phase.seconds, applied),
    }


#: Span names on the query path, by the layer group the acceptance shares
#: are stated in.  ``replication.apply_update`` is the write path.
IN_SERVICE_SERVING_SPANS = (
    "service.query", "service.route", "sql.parse", "sql.compile",
    "scheduler.submit", "scheduler.rebatch",
)
SERVING_SPANS = IN_SERVICE_SERVING_SPANS + (
    "wire.decode", "wire.encode", "wire.answer_payload",
)
EXECUTOR_SPANS = (
    "replication.sync_bounds", "replication.refresh_batched",
    "replication.source_handle", "predicates.classify", "core.step1",
    "core.step3", "core.knapsack", "storage.harvest", "storage.order",
)


def per_layer_metrics(
    workload, phase: OpenPhase, traced: OpenPhase, trace, server: Server,
    failed_share: Reading, reruns: int, closed: list, closed_seconds: float,
) -> dict[str, Reading]:
    m: dict[str, Reading] = {}
    answered = phase.answered
    latencies = sorted(s.latency * 1e3 for s in answered)
    n = len(phase.samples)

    # --- the generator's own view (untraced open loop) ---
    m["loadgen.late_p50_ms"] = Reading(phase.late_p50_ms, n)
    m["loadgen.late_p99_ms"] = Reading(phase.late_p99_ms, n)
    m["loadgen.query_p95_ms"] = Reading(quantile(latencies, 0.95), len(latencies))
    m["loadgen.query_p99_ms"] = Reading(quantile(latencies, 0.99), len(latencies))
    slow = sum(
        1 for s in phase.samples
        if s.failed or s.latency * 1e3 / phase.speed > workload.slo_ms
    )
    m["loadgen.slo_miss_share"] = _ratio(slow, n, "no requests")
    m["loadgen.reruns"] = Reading(float(reruns), 1)
    m["loadgen.failed_share"] = failed_share
    m["loadgen.capacity_qps"] = _ratio(
        sum(1 for s in closed if s.ok), closed_seconds, "no closed-loop phase"
    )
    m["loadgen.capacity_qps"].samples = len(closed)
    m["wire.bytes_in_per_query"] = _ratio(
        sum(s.bytes_out for s in phase.samples), n, "no requests"
    )
    m["wire.bytes_out_per_query"] = _ratio(
        sum(s.bytes_in for s in answered), len(answered), "no answers"
    )
    for cls in ("sum", "groupby", "topn", "median", "join"):
        values = sorted(
            s.latency * 1e3 for s in answered if s.statement.cls == cls
        )
        m[f"sql.class_p50_ms.{cls}"] = (
            Reading(quantile(values, 0.5), len(values)) if values
            else Reading(None, 0, "the workload has no statement of this class")
        )
    executed = [s for s in answered if not s.cached]
    m["core.plan_tuples_per_query"] = _ratio(
        sum(s.refreshed for s in executed), len(executed), "nothing executed"
    )
    m["core.early_exit_ratio"] = _ratio(
        sum(1 for s in executed if s.refreshed == 0), len(executed),
        "nothing executed",
    )
    finite = [s for s in answered if 0 < s.statement.budget < math.inf]
    m["core.width_ratio_mean"] = _ratio(
        sum(s.width / s.statement.budget for s in finite), len(finite),
        "no finite budgets",
    )

    # --- registry deltas around the untraced open loop ---
    d = phase.counters
    served = d.value("trapp_queries_total", outcome="served")
    events = "trapp_result_cache_events_total"
    m["wire.errors"] = Reading(d.value("trapp_wire_errors_total"), 1)
    wait, count = d.mean("trapp_admission_wait_seconds")
    m["service.admission_wait_ms"] = Reading(
        None if wait is None else wait * 1e3, count, "no query reached admission"
    )
    m["service.result_cache_hit_ratio"] = _ratio(
        d.value(events, event="hit"), served, "nothing served"
    )
    m["service.singleflight_join_ratio"] = _ratio(
        d.value("trapp_service_events_total", event="singleflight_join"),
        served, "nothing served",
    )
    m["service.result_invalidations_per_answer"] = _ratio(
        d.value(events, event="invalidation"), served, "nothing served"
    )
    m["service.rejected"] = Reading(
        d.value("trapp_queries_total", outcome="rejected"), 1
    )
    fraction, count = d.mean("trapp_index_window_fraction")
    m["predicates.window_fraction_mean"] = Reading(
        fraction, count, "no query took the index-window classify route"
    )
    tick, count = d.mean("trapp_scheduler_tick_seconds")
    m["scheduler.tick_ms"] = Reading(
        None if tick is None else tick * 1e3, count, "no tick ran"
    )
    plans, count = d.mean("trapp_scheduler_plans_per_tick")
    m["scheduler.plans_per_tick"] = Reading(plans, count, "no tick ran")
    scheduler = "trapp_scheduler_events_total"
    m["scheduler.dedup_ratio"] = _ratio(
        d.value(scheduler, event="tuple_refreshed"),
        d.value(scheduler, event="tuple_requested"), "no tuple was requested",
    )
    m["scheduler.source_requests_per_answer"] = _ratio(
        d.value(scheduler, event="source_request"), served, "nothing served"
    )
    m["scheduler.retries"] = Reading(
        d.value("trapp_fault_events_total", event="retry"), 1
    )
    applied = (
        phase.mark_after["updates_applied"] - phase.mark_before["updates_applied"]
    )
    m["replication.value_initiated_per_update"] = _ratio(
        d.value("trapp_source_refreshes", kind="value_initiated"), applied,
        "no master updates",
    )
    m["replication.fanout_pushes_per_refresh"] = _ratio(
        d.value("trapp_fanout_pushes_total"),
        d.value("trapp_source_refreshes", kind="query_initiated"),
        "no query-initiated refresh",
    )
    m["replication.subscribe_s"] = Reading(server.subscribe_s, 1)
    m["host.probe_us"] = Reading(
        phase.mark_after.get("probe_p50_us"),
        phase.mark_after.get("probe_samples", 0), "the world never ticked",
    )
    m["host.speed_factor"] = Reading(phase.speed, 1)
    from_open_phase = set(m)

    # --- spans of the traced open loop ---
    queries = len(traced.answered)
    client_seconds = sum(s.latency for s in traced.answered)
    traced_seconds = traced.seconds

    def missing(name: str) -> str:
        return f"no {name} span was recorded (target unresolved or never called)"

    def self_per_query(names: tuple[str, ...], scale: float) -> Reading:
        stats = [trace.stats(name) for name in names]
        calls = sum(s.calls for s in stats)
        if not calls or not queries:
            return Reading(None, 0, missing(names[0]))
        return Reading(sum(s.self_time for s in stats) / queries * scale, calls)

    def per_call(name: str, scale: float) -> Reading:
        stats = trace.stats(name)
        if not stats.calls:
            return Reading(None, 0, missing(name))
        return Reading(stats.total / stats.calls * scale, stats.calls)

    m["wire.decode_us"] = self_per_query(("wire.decode",), 1e6)
    m["wire.encode_us"] = self_per_query(("wire.encode", "wire.answer_payload"), 1e6)
    m["service.query_self_ms"] = self_per_query(("service.query",), 1e3)
    m["service.route_us"] = per_call("service.route", 1e6)
    m["sql.parse_us"] = per_call("sql.parse", 1e6)
    m["sql.compile_us"] = per_call("sql.compile", 1e6)
    m["predicates.classify_ms"] = self_per_query(("predicates.classify",), 1e3)
    m["predicates.classify_calls_per_query"] = _ratio(
        trace.stats("predicates.classify").calls, queries, "no traced answers"
    )
    m["core.step1_self_ms"] = self_per_query(("core.step1",), 1e3)
    m["core.step3_self_ms"] = self_per_query(("core.step3",), 1e3)
    m["core.knapsack_ms"] = self_per_query(("core.knapsack",), 1e3)
    m["storage.harvest_ms"] = self_per_query(("storage.harvest",), 1e3)
    m["storage.order_ms"] = self_per_query(("storage.order",), 1e3)
    m["storage.update_value_us"] = per_call("storage.update_value", 1e6)
    m["storage.cell_writes_per_s"] = _ratio(
        trace.stats("storage.update_value").calls, traced_seconds, "no traced phase"
    )
    m["scheduler.submit_wait_ms"] = self_per_query(("scheduler.submit",), 1e3)
    m["scheduler.rebatch_ms"] = self_per_query(("scheduler.rebatch",), 1e3)
    m["replication.sync_bounds_ms"] = self_per_query(("replication.sync_bounds",), 1e3)
    syncs = trace.stats("replication.sync_bounds").calls
    m["replication.sync_calls_per_query"] = _ratio(syncs, queries, "no traced answers")
    rewrites = trace.leaves_under.get(
        ("replication.sync_bounds", "storage.update_value"), [0, 0.0]
    )
    m["replication.sync_rewrites_per_call"] = _ratio(
        rewrites[0], syncs, missing("replication.sync_bounds")
    )
    m["replication.refresh_batched_ms"] = self_per_query(
        ("replication.refresh_batched",), 1e3
    )
    m["replication.source_handle_ms"] = self_per_query(
        ("replication.source_handle",), 1e3
    )
    m["replication.apply_update_us"] = per_call("replication.apply_update", 1e6)
    traced_cpu = traced.mark_after["cpu_s"] - traced.mark_before["cpu_s"]
    m["replication.update_cpu_share"] = _ratio(
        trace.stats("replication.apply_update").total, traced_cpu, "no CPU delta"
    )
    m["replication.update_cpu_share"].samples = trace.stats(
        "replication.apply_update"
    ).calls

    # Attribution: self times are disjoint, so they add up.  Cell rewrites
    # are charged to the path whose span encloses them.
    def attributed(names: tuple[str, ...]) -> float:
        seconds = sum(trace.stats(name).self_time for name in names)
        for (parent, _leaf), (_calls, leaf_seconds) in trace.leaves_under.items():
            if parent in names:
                seconds += leaf_seconds
        return seconds

    # Everything outside the ``service.query`` span is the wire's: the
    # socket, loop scheduling, decode and encode, the generator's own side.
    in_service = sum(trace.query_seconds.values())
    residual = client_seconds - in_service if trace.query_seconds else 0.0
    m["wire.residual_ms"] = (
        Reading(residual / queries * 1e3, queries)
        if queries and trace.query_seconds
        else Reading(None, 0, missing("service.query"))
    )
    in_spans = attributed(SERVING_SPANS)
    serving = attributed(IN_SERVICE_SERVING_SPANS) + residual
    executing = attributed(EXECUTOR_SPANS)
    m["trace.serving_share"] = _ratio(serving, client_seconds, "no traced answers")
    m["trace.executor_share"] = _ratio(executing, client_seconds, "no traced answers")
    m["trace.coverage"] = _ratio(
        in_spans + executing, client_seconds, "no traced answers"
    )
    m["trace.serving_share"].samples = m["trace.executor_share"].samples = queries
    m["trace.coverage"].samples = queries
    traced_p50 = quantile(sorted(s.latency for s in traced.answered), 0.5)
    untraced_p50 = quantile(sorted(s.latency for s in answered), 0.5)
    m["trace.overhead_ratio"] = (
        Reading(
            (traced_p50 / traced.speed) / (untraced_p50 / phase.speed), queries
        )
        if queries and answered else Reading(None, 0, "a phase has no answers")
    )
    m["trace.unresolved_targets"] = Reading(float(len(trace.unresolved)), 1)

    # Times are reported at the reference host speed of the phase they
    # were measured in; the generator's own lateness and the probe are not.
    for name, reading in m.items():
        if catalog.UNITS[name] in ("ms", "us") and not name.startswith(
            ("loadgen.late_", "host.")
        ):
            reading.at_reference_speed(
                phase.speed if name in from_open_phase else traced.speed
            )
    return m


def shape_table(samples: list) -> dict:
    """Per-shape diagnostics of one phase (kept in the result file)."""
    shapes: dict[str, list] = {}
    for sample in samples:
        if sample.ok:
            shapes.setdefault(sample.statement.shape, []).append(sample)
    table = {}
    for shape, group in sorted(shapes.items()):
        executed = [s for s in group if not s.cached]
        table[shape] = {
            "answers": len(group),
            "p50_ms": quantile(sorted(s.latency * 1e3 for s in group), 0.5),
            "cached_share": 1 - len(executed) / len(group),
            "plan_tuples": (
                sum(s.refreshed for s in executed) / len(executed)
                if executed else None
            ),
            "early_exit": (
                sum(1 for s in executed if s.refreshed == 0) / len(executed)
                if executed else None
            ),
        }
    return table


# ----------------------------------------------------------------------
# One pass over one workload
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    profile: str
    correct: bool
    attempted: int
    failed: int
    valid: bool
    metrics: dict[str, Reading]
    contract: dict
    phases: dict = field(default_factory=dict)

    def document(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "profile": self.profile,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "valid": self.valid,
            "constants": workloads.resolve(self.workload, self.profile).constants(),
            "metrics": {
                name: reading.document(name)
                for name, reading in self.metrics.items()
            },
            "contract": self.contract,
            "phases": self.phases,
        }


async def run_pass(
    name: str, seed: int, seconds: float, trace: bool, profile: str = "full"
) -> PassResult:
    """Set-up, phases and contract check of one workload, one trace mode."""
    with _a_core_each() as server_cpu:
        return await _run_pass(name, seed, seconds, trace, profile, server_cpu)


async def _run_pass(
    name: str, seed: int, seconds: float, trace: bool, profile: str,
    server_cpu: int | None,
) -> PassResult:
    workload = workloads.resolve(name, profile)
    if (
        not trace
        and profile == "full"
        and workload.rate_qps * seconds * workloads.PHASES_UNTRACED["open"]
        < workloads.MIN_OPEN_SAMPLES
    ):
        print(
            f"warning: {seconds:g} s yields fewer than "
            f"{workloads.MIN_OPEN_SAMPLES} open-loop samples on {name}",
            file=sys.stderr,
        )
    shares = workloads.PHASES_TRACED if trace else workloads.PHASES_UNTRACED
    ctx = workloads.statement_context(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-{seed}-{os.getpid()}.json"

    setups: list[float] = []
    server = None
    for _ in range(1 if trace else SETUP_SPAWNS[profile]):
        if server is not None:
            await server.stop()
        server = await Server.spawn(
            name, seed, profile, str(spans_path) if trace else "", server_cpu
        )
        setups.append(server.setup_s)

    phases: dict = {}
    try:
        async with await loadgen.LoadGenerator.connect(
            "127.0.0.1", server.port, workload.target
        ) as generator:
            await generator.open_loop(
                workloads.request_schedule(
                    workload, seed, "warmup", seconds * shares["warmup"], ctx
                )
            )
            phase = await measure_open(
                generator, server, workload, seed, "open",
                seconds * shares["open"], ctx,
            )
            measured = list(phase.samples)
            reruns = phase.reruns
            valid = phase.valid
            phases["open"] = _phase_document(phase)
            if trace:
                traced = await measure_open(
                    generator, server, workload, seed, "traced",
                    seconds * shares["traced"], ctx, traced=True,
                )
                measured += traced.samples
                reruns += traced.reruns
                valid = valid and traced.valid
                phases["traced"] = _phase_document(traced)
                closed, closed_seconds = await generator.closed_loop(
                    workloads.statement_stream(workload, seed, "closed", ctx),
                    seconds * shares["closed"],
                )
                measured += closed
                phases["closed"] = {
                    "answers": sum(1 for s in closed if s.ok),
                    "seconds": closed_seconds,
                    "errors": _errors(closed),
                    "shapes": shape_table(closed),
                }
            final_mark = await server.command("mark")
            masters = (await server.command("freeze"))["masters"]
            checked, failures = await oracle.contract_check(
                generator, "127.0.0.1", server.port, workload,
                oracle.oracle_statements(workload, seed, ctx), masters,
            )
    finally:
        await server.stop()

    attempted = len(measured) + checked
    violations = sum(1 for s in measured if s.ok and not s.within_budget)
    failed = sum(1 for s in measured if s.failed) + len(failures)
    failed_share = Reading(failed / attempted, attempted)
    if trace:
        summary = tracing.load_summary(str(spans_path))
        spans_path.unlink()
        metrics = per_layer_metrics(
            workload, phase, traced, summary, server, failed_share, reruns,
            closed, closed_seconds,
        )
    else:
        metrics = end_to_end_metrics(setups, phase, final_mark)
    return PassResult(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        profile=profile,
        correct=not failures and not violations,
        attempted=attempted,
        failed=failed,
        valid=valid,
        metrics=metrics,
        contract={
            "checked": checked,
            "failures": [vars(failure) for failure in failures],
            "budget_violations": violations,
        },
        phases=phases,
    )


def _phase_document(phase: OpenPhase) -> dict:
    return {
        "requests": len(phase.samples),
        "answers": len(phase.answered),
        "seconds": phase.seconds,
        "late_p99_ms": phase.late_p99_ms,
        "host_speed_factor": phase.speed,
        "valid": phase.valid,
        "reruns": phase.reruns,
        "errors": _errors(phase.samples),
        "late_bursts": _late_bursts(phase.samples),
        "shapes": shape_table(phase.samples),
        # [due offset s, latency ms] per answered request, for re-analysis.
        "latencies": [
            [round(s.due - phase.samples[0].due, 4), round(s.latency * 1e3, 3)]
            for s in phase.answered
        ],
    }


def _late_bursts(samples: list) -> list[list[float]]:
    """``[offset s, requests, worst ms]`` per run of requests sent over the
    lateness limit — tells a stalled generator from a slow server."""
    bursts: list[list[float]] = []
    open_burst = False
    for sample in samples:
        late_ms = sample.late * 1e3
        if late_ms <= workloads.MAX_LATE_P99_MS:
            open_burst = False
        elif open_burst:
            bursts[-1][1] += 1
            bursts[-1][2] = max(bursts[-1][2], round(late_ms, 1))
        else:
            open_burst = True
            bursts.append([round(sample.due - samples[0].due, 2), 1, round(late_ms, 1)])
    return bursts


def _errors(samples: list) -> dict[str, int]:
    """Error kinds with their counts (unanswered requests included)."""
    kinds: dict[str, int] = {}
    for sample in samples:
        if not sample.ok:
            kind = sample.error.split(":", 1)[0] if sample.error else "no reply"
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def environment_stamp(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "schema_version": workloads.SCHEMA_VERSION,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def print_table(result: PassResult) -> None:
    kind = "per-layer (traced pass)" if result.trace else "end-to-end"
    flag = "" if result.valid else "  [INVALID: generator ran late]"
    print(f"\n== {result.workload} · seed {result.seed} · {kind}{flag}")
    print(f"{'metric':44} {'unit':>6} {'value':>14} {'samples':>8}")
    for name, reading in result.metrics.items():
        value = "null" if reading.value is None else f"{reading.value:.6g}"
        print(f"{name:44} {catalog.UNITS[name]:>6} {value:>14} {reading.samples:>8}")
        if reading.value is None:
            print(f"{'':44} ({reading.reason})")
    contract = result.contract
    print(
        f"attempted {result.attempted}, failed {result.failed}; contract check: "
        f"{contract['checked']} statements, {len(contract['failures'])} failures"
    )
    for failure in contract["failures"][:5]:
        print(f"  CONTRACT FAILURE: {failure['reason']} :: {failure['sql']}")


def driver_line(results: list[PassResult], qualify: bool) -> str:
    """The last line of output: the keys the benchmark contract fixes.

    That line cannot carry ``null``: a per-layer metric that does not
    apply to the workload reads 0 there, and ``null`` with its reason in
    the table above and in the result file.
    """
    metrics = {}
    for result in results:
        for name, reading in result.metrics.items():
            key = f"{result.workload}.{name}" if qualify else name
            metrics[key] = {
                "value": 0.0 if reading.value is None else reading.value,
                "unit": catalog.UNITS[name],
            }
    return json.dumps(
        {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
        help="1: traced pass (per-layer metrics); 0: untraced (end-to-end); "
        "default: both when no --workload is given, else 0",
    )
    parser.add_argument("--profile", default="full", choices=("full", "mini"))
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.trace is None:
        passes = [False, True] if not args.workload else [False]
    else:
        passes = [bool(args.trace)]
    results = []
    for name in names:
        for trace in passes:
            result = asyncio.run(
                run_pass(name, args.seed, args.seconds, trace, args.profile)
            )
            print_table(result)
            results.append(result)

    suffix = f"-{args.workload}-t{int(passes[0])}" if args.workload else ""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.seed}{suffix}.json"
    path.write_text(
        json.dumps(
            {
                "stamp": environment_stamp(args.seed),
                "runs": [result.document() for result in results],
            },
            indent=1,
        )
    )
    print(f"\nresult file: {path.relative_to(ROOT)}")
    print(driver_line(results, qualify=not args.workload))
    return 0 if all(result.correct for result in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
