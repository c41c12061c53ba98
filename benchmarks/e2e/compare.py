#!/usr/bin/env python3
"""Compare sets of end-to-end results against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py --a out/a/*.json [--b out/b/*.json]

Each set is one or more result files written by ``run.py`` (a directory
stands for every ``*.json`` in it).  Per workload x end-to-end metric the
tool prints each set's median and spread — the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median — and a verdict for set B against set A:

``improved`` / ``regressed``
    the median moved in that direction by more than the metric's bound;
``within bound``
    it did not;
``unresolved``
    the spread of either set exceeds the bound, so the runs cannot tell —
    unless every run of one set reads better than every run of the other,
    which is then reported as ``improved`` or ``regressed``.  ``setup_s``
    is judged on its medians alone, as the gate does: its spread is process
    start and imports on a shared host, and it already is a median of
    several spawns per run.

With only ``--a`` the tool reports the spread of that one set against each
bound, which is how the bounds were fitted (README.md, "Spread behind each
bound").  The exit code is 1 when any pairing regressed or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def load_bounds(path: Path = BENCHMARK_JSON) -> dict[str, dict]:
    """``name -> {"unit", "better", "bound"}`` for every end-to-end metric."""
    document = json.loads(path.read_text())
    return {metric["name"]: metric for metric in document["end_to_end"]}


def _files(arguments: list[str]) -> list[Path]:
    files: list[Path] = []
    for argument in arguments:
        path = Path(argument)
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    return files


def load_set(arguments: list[str]) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over every untraced run of the set."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in _files(arguments):
        for run in json.loads(path.read_text())["runs"]:
            if run["trace"]:
                continue
            metrics = values.setdefault(run["workload"], {})
            for name, reading in run["metrics"].items():
                if reading["value"] is not None:
                    metrics.setdefault(name, []).append(reading["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


#: Metrics held to their medians only (see the module docstring).
SPREAD_EXEMPT = frozenset({"setup_s"})


def verdict(
    a: list[float], b: list[float], better: str, bound: float,
    spread_exempt: bool = False,
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a)
    )
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound and not spread_exempt:
        goodness_a = [sign * value for value in a]
        goodness_b = [sign * value for value in b]
        if min(goodness_b) > max(goodness_a):
            return "improved"
        if max(goodness_b) < min(goodness_a):
            return "regressed"
        return "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "regressed"
    return "within bound"


def _fmt(values: list[float]) -> str:
    s = spread(values)
    shown = "   n/a" if s is None else f"{s:6.3f}"
    return f"{statistics.median(values):12.5g} {shown} {len(values):3d}"


def report(set_a: dict, set_b: dict | None, bounds: dict[str, dict]) -> bool:
    """Print the table; returns whether every pairing is acceptable."""
    acceptable = True
    header = f"{'workload':14} {'metric':26} {'bound':>5} {'median A':>12} {'iqr/med':>6} {'n':>3}"
    if set_b is not None:
        header += f" {'median B':>12} {'iqr/med':>6} {'n':>3}  verdict"
    else:
        header += "  fits"
    print(header)
    for workload in sorted(set_a):
        for name, metric in bounds.items():
            a = set_a[workload].get(name)
            if not a:
                continue
            line = f"{workload:14} {name:26} {metric['bound']:5.2f} {_fmt(a)}"
            if set_b is None:
                s = spread(a)
                fits = s is None or name in SPREAD_EXEMPT or s <= metric["bound"]
                third = s is not None and s <= metric["bound"] / 3
                line += "  " + ("yes (< bound/3)" if third else "yes" if fits else "NO")
                acceptable = acceptable and fits
            else:
                b = set_b.get(workload, {}).get(name)
                if not b:
                    continue
                outcome = verdict(
                    a, b, metric["better"], metric["bound"], name in SPREAD_EXEMPT
                )
                line += f" {_fmt(b)}  {outcome}"
                acceptable = acceptable and outcome in ("improved", "within bound")
            print(line)
    return acceptable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="result files or directories")
    parser.add_argument("--b", nargs="+", help="second set; omitted: spread report of --a")
    parser.add_argument("--benchmark-json", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark_json)
    set_b = load_set(args.b) if args.b else None
    return 0 if report(load_set(args.a), set_b, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
