"""Self-check of the end-to-end benchmark (collected by the tier-1 command).

Three promises later changes rely on: inputs are a pure function of the
seed; a miniature profile of every workload emits every metric named in
``BENCHMARK.json``; and a wrap target that no longer resolves degrades the
trace (``null`` metrics, ``trace.unresolved_targets`` bumped) instead of
breaking a benchmark those changes are not allowed to edit.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MINI_SECONDS = 1.5


def _schedule_bytes(name: str, seed: int) -> bytes:
    workload = workloads.resolve(name, "mini")
    requests = workloads.request_schedule(workload, seed, "open:0", 3.0)
    updates = itertools.islice(workloads.update_stream(workload, seed), 200)
    return repr(
        (
            [(r.due, r.client, r.statement.sql) for r in requests],
            [(u.due, u.table, u.tid, u.column, u.value) for u in updates],
        )
    ).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _schedule_bytes(name, 7) == _schedule_bytes(name, 7)
    assert _schedule_bytes(name, 7) != _schedule_bytes(name, 8)


def test_benchmark_json_and_catalogue_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for section, metrics in (
        ("end_to_end", catalog.END_TO_END),
        ("per_layer", catalog.PER_LAYER),
    ):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_miniature_run_emits_every_metric(name, trace):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--profile", "mini",
            "--workload", name, "--seed", "5", "--seconds", str(MINI_SECONDS),
            "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())

    # The result file keeps what the last line cannot: null with a reason.
    result = json.loads(
        (HERE / "out" / f"result-5-{name}-t{trace}.json").read_text()
    )
    assert result["stamp"]["schema_version"] == workloads.SCHEMA_VERSION
    for key in ("commit", "python", "numpy", "cpu", "nproc", "seed"):
        assert key in result["stamp"]
    (recorded,) = result["runs"]
    assert recorded["constants"]["links"] == workloads.resolve(name, "mini").links
    for metric, reading in recorded["metrics"].items():
        if reading["value"] is None:
            assert reading["reason"], metric
        else:
            assert math.isfinite(reading["value"]), metric
    if trace:
        assert recorded["metrics"]["trace.unresolved_targets"]["value"] == 0


def test_unresolved_wrap_target_degrades_the_trace():
    recorder = tracing.Recorder()
    bogus = tracing.Wrap("sql.parse", "repro.service.service.renamed_away")
    assert recorder.install((bogus,)) == 1
    assert recorder.unresolved == [bogus.target]

    summary = tracing.summarize(
        {"names": [], "spans": [], "leaves": [], "unresolved": recorder.unresolved}
    )
    nothing = run.Counters({"families": []})
    mark = {"cpu_s": 0.0, "updates_applied": 0}
    phase = run.OpenPhase(
        samples=[], seconds=1.0, counters=run.Delta(nothing, nothing),
        mark_before=mark, mark_after=mark, reruns=0,
        late_p50_ms=0.0, late_p99_ms=0.0,
    )
    metrics = run.per_layer_metrics(
        workloads.resolve("hot_overlap", "mini"), phase, phase, summary,
        SimpleNamespace(subscribe_s=0.0), run.Reading(0.0, 1), reruns=0,
        closed=[], closed_seconds=0.0,
    )
    assert set(metrics) == {m.name for m in catalog.PER_LAYER}
    assert metrics["trace.unresolved_targets"].value == 1.0
    parse = metrics["sql.parse_us"]
    assert parse.value is None and "sql.parse" in parse.reason
