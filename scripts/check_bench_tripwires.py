#!/usr/bin/env python
"""Golden-value tripwires over the committed benchmark results.

The ``BENCH_*.json`` files at the repo root carry deterministic
smoke numbers (cost-model arithmetic on seeded workloads) alongside
machine-dependent timings.  Each bench already guards its own smoke
baseline at run time; this script formalizes those tripwires in one
place — a golden-values harness in the style of data-pipeline golden
checks — so CI (and a human after regenerating any results file) can
verify the committed numbers haven't silently drifted without running
the benches:

1. cache_hierarchy  — smoke cost/answer at max cache fan-out
2. concurrent_service — smoke serial mixed cost/answer
3. refresh_planner  — smoke vector planner warm time (timing: loose)
4. sharded_sources  — smoke cost/answer at max shard fan-in
5. fault_tolerance  — smoke availability under the seeded chaos sweep
   (may not fall below the committed baseline)
6. elastic_group    — smoke all-in cost/answer under the autoscaled
   traffic ramp, plus zero re-stick failures after membership changes
7. interval_index   — smoke classify+harvest speedup of the endpoint
   indexes over the dense sweep (timing: loose) and the deterministic
   materialized-window fraction

Every benchmark registered in ``BENCH_CHECKS`` must have its
``BENCH_*.json`` committed; a missing or stale results file is reported
as a failure in its own right rather than silently skipped.

A further, *measured* tripwire guards the observability layer itself
(PR 7): a short mixed workload runs twice, telemetry enabled and
disabled, and enabled throughput must stay within
``TRIPWIRE_OVERHEAD_LIMIT`` (default 5%) of the no-op path — the
instrumentation may not tax the serving hot path.  Skip it (e.g. on a
loaded runner) with ``--skip-overhead``.

Golden values live in ``scripts/bench_tripwires.json``; ``--update``
re-records them from the current results files.  Exit status is the
number of failed checks.  Run with ``PYTHONPATH=src`` (the script also
inserts ``src/`` itself).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "scripts" / "bench_tripwires.json"

sys.path.insert(0, str(REPO / "src"))


class GoldenValues:
    """Track and validate key statistics against a committed golden file.

    Normal mode compares every ``check(key, value, tolerance)`` call
    against the stored golden value (relative tolerance); update mode
    re-records the observed values instead.  Leaving the ``with`` block
    raises ``ValueError`` listing every mismatch (update mode writes the
    file and never raises).
    """

    def __init__(self, path: Path, update_mode: bool = False) -> None:
        self.path = path
        self.update_mode = update_mode
        self.failures: list[str] = []
        self.checked = 0
        self._golden: dict = {}

    def __enter__(self) -> "GoldenValues":
        if self.path.exists():
            self._golden = json.loads(self.path.read_text())
        return self

    def check(self, key: str, value: float, tolerance: float = 0.0) -> None:
        """Validate ``value`` against the golden entry for ``key``.

        ``tolerance`` is relative: ``|value - golden| <= tolerance *
        |golden|``.  Unknown keys fail in normal mode (the golden file
        is stale) and are recorded in update mode.
        """
        self.checked += 1
        if self.update_mode:
            self._golden[key] = {"value": value, "tolerance": tolerance}
            return
        entry = self._golden.get(key)
        if entry is None:
            self.failures.append(
                f"{key}: no golden value recorded (run with --update)"
            )
            return
        golden = entry["value"]
        allowed = entry.get("tolerance", tolerance) * abs(golden)
        if abs(value - golden) > allowed:
            self.failures.append(
                f"{key}: {value:g} drifted from golden {golden:g} "
                f"(allowed ±{allowed:g})"
            )

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        if self.update_mode:
            self.path.write_text(
                json.dumps(self._golden, indent=2, sort_keys=True) + "\n"
            )
        elif self.failures:
            raise ValueError(
                "golden-value tripwires failed:\n  "
                + "\n  ".join(self.failures)
            )


# ----------------------------------------------------------------------
# The per-benchmark golden checks, declaratively: one row per tripwire,
# ``(bench, dotted path into BENCH_<bench>.json, relative tolerance)``.
# Cost-model numbers are deterministic on any machine (tight tolerance:
# a drift means planner/executor behavior changed); wall-clock numbers
# get loose tolerances (they re-record per machine class).  Every bench
# named here MUST have a committed results file — a missing file is a
# loud failure, not a silent skip, so a bench can't quietly drop out of
# CI coverage when its JSON is deleted or renamed.
# ----------------------------------------------------------------------
BENCH_CHECKS: list[tuple[str, str, float]] = [
    ("cache_hierarchy", "smoke_baseline.cost_per_answer_max_fanout", 0.5),
    ("concurrent_service", "smoke_baseline.serial_cost_per_answer", 0.5),
    ("refresh_planner", "smoke_baseline.vector_warm_seconds", 2.0),
    ("sharded_sources", "smoke_baseline.cost_per_answer_max_fanin", 0.5),
    # Availability is a fraction in [0, 1]; the seeded chaos schedule is
    # deterministic, so any drift below golden means the failure-handling
    # stack started erroring queries it used to answer.
    ("fault_tolerance", "smoke_baseline.availability", 0.01),
    # All-in elasticity bill (refresh receipts + snapshot transfers per
    # answer) on the seeded ramp; re-stick failures are an exact zero —
    # any nonzero count means a membership change was client-visible.
    ("elastic_group", "smoke_baseline.cost_per_answer", 0.5),
    ("elastic_group", "smoke_baseline.re_stick_failures", 0.0),
    # ISSUE 10 interval indexes: the smoke speedup is wall-clock (loose —
    # it re-records per machine class) but the window fraction is pure
    # counting on a seeded table, so any drift means the classifier
    # started materializing different windows.
    ("interval_index", "smoke_baseline.classify_harvest_speedup", 0.75),
    ("interval_index", "smoke_baseline.window_fraction", 0.01),
]


class MissingBenchError(RuntimeError):
    """A bench registered in BENCH_CHECKS has no committed results file."""


def _bench(name: str) -> dict:
    path = REPO / f"BENCH_{name}.json"
    if not path.exists():
        raise MissingBenchError(
            f"BENCH_{name}.json is registered in BENCH_CHECKS but missing "
            f"from the repo root — run benchmarks/bench_{name}.py (and "
            f"commit the results), or drop its rows from BENCH_CHECKS"
        )
    return json.loads(path.read_text())


def _dig(payload: dict, dotted: str, bench: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise MissingBenchError(
                f"BENCH_{bench}.json has no '{dotted}' entry — the results "
                f"file predates the tripwire; regenerate it"
            )
        node = node[part]
    return node


def check_bench_goldens(golden: GoldenValues) -> list[str]:
    """Run every BENCH_CHECKS row; returns loud missing-file failures."""
    missing: list[str] = []
    for bench, dotted, tolerance in BENCH_CHECKS:
        try:
            value = _dig(_bench(bench), dotted, bench)
        except MissingBenchError as exc:
            if str(exc) not in missing:  # one report per file, not per row
                missing.append(str(exc))
            continue
        golden.check(f"{bench}.{dotted.split('.')[-1]}", value, tolerance)
    return missing


# ----------------------------------------------------------------------
# Instrumentation overhead: telemetry on vs. off on one mixed workload.
# ----------------------------------------------------------------------
OVERHEAD_ROUNDS = 3
OVERHEAD_REPEATS = 5


async def _timed_run(telemetry_enabled: bool) -> float:
    from repro.service import QueryService
    from repro.workloads.service import mixed_scripts, mixed_service_system

    system, cost_model = mixed_service_system(n_caches=2)
    service = QueryService(
        system, cost_model=cost_model, telemetry_enabled=telemetry_enabled
    )
    cache = system.cache("edge/0")
    scripts = mixed_scripts(
        cache.table("links"),
        cache.table("nodes"),
        n_clients=8,
        queries_per_client=OVERHEAD_ROUNDS,
    )
    completed = 0
    start = time.perf_counter()
    for round_index in range(OVERHEAD_ROUNDS):
        system.clock.advance(20.0)
        for replica in system.group("edge"):
            replica.sync_bounds()
        answers = await asyncio.gather(
            *(
                service.query(
                    "edge", script.sqls[round_index],
                    client_id=script.client_id,
                )
                for script in scripts
            )
        )
        completed += len(answers)
    return completed / (time.perf_counter() - start)


def check_instrumentation_overhead(limit: float) -> list[str]:
    """Best-of-N throughput, telemetry on vs. off, interleaved so drift
    on a shared runner hits both sides equally."""
    best = {True: 0.0, False: 0.0}
    for _ in range(OVERHEAD_REPEATS):
        for enabled in (True, False):
            best[enabled] = max(
                best[enabled], asyncio.run(_timed_run(enabled))
            )
    ratio = best[True] / best[False]
    print(
        f"instrumentation overhead: enabled {best[True]:.1f} q/s vs "
        f"disabled {best[False]:.1f} q/s (ratio {ratio:.3f}, "
        f"floor {1 - limit:.2f})"
    )
    if ratio < 1 - limit:
        return [
            f"telemetry-enabled throughput {best[True]:.1f} q/s is more "
            f"than {limit:.0%} below the disabled path {best[False]:.1f} q/s"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="re-record the golden values from the current BENCH_*.json",
    )
    parser.add_argument(
        "--skip-overhead", action="store_true",
        help="skip the measured instrumentation-overhead tripwire",
    )
    parser.add_argument(
        "--overhead-limit", type=float, default=0.05,
        help="allowed telemetry throughput cost (default 0.05 = 5%%)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    with GoldenValues(GOLDEN_PATH, update_mode=args.update) as golden:
        failures.extend(check_bench_goldens(golden))
        # Collect instead of raising so the overhead check still runs.
        failures.extend(golden.failures)
        golden.failures = []
    if args.update:
        print(f"golden values recorded: {GOLDEN_PATH.relative_to(REPO)}")
    else:
        print(f"golden checks: {golden.checked - len(failures)}"
              f"/{golden.checked} within tolerance")

    if not args.skip_overhead and not args.update:
        failures.extend(check_instrumentation_overhead(args.overhead_limit))

    for failure in failures:
        print(f"TRIPWIRE: {failure}")
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
