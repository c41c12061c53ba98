"""The server process of the end-to-end benchmark.

Builds the workload's seeded ``TrappSystem``, wraps it in a
``QueryService`` with the ``python -m repro serve`` defaults, serves the
NDJSON protocol on an ephemeral port, and runs the *world*: a task that
every 20 ms advances ``system.clock`` 1:1 with wall time and applies the
seeded master-update stream through the public ``apply_update``.
(``python -m repro serve`` itself is not the target: its clock stands
still and it has no writes, so bounds converge to exact and a run longer
than a second measures nothing.)

The runner talks to this process over stdin/stdout, one JSON object per
line: ``mark`` (resource usage and update-path figures since the last
mark), ``trace_on``/``trace_off`` (install the wrap table and record, put the
originals back), ``freeze`` (stop the world, dump master values), ``exit``.
The first stdout line announces the port.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.replication.messages import ObjectKey  # noqa: E402
from repro.service import QueryService, serve  # noqa: E402


def speed_probe() -> float:
    """Wall seconds of a fixed pure-Python kernel: the host's speed, now."""
    began = time.perf_counter()
    total = 0.0
    slots: dict[int, float] = {}
    for index in range(workloads.PROBE_ITERATIONS):
        slots[index & 31] = total
        total += index * 0.5
    return time.perf_counter() - began


class World:
    """Wall-clock time and the master-update stream, on the server's loop.

    Each tick also times ``speed_probe``: on a shared box the same work
    runs 10-20 % faster or slower from one minute to the next, and the
    probe, taken beside the work it prices, is what the runner divides
    that drift out with.
    """

    def __init__(self, deployment, workload, seed: int) -> None:
        self.clock = deployment.system.clock
        self.source = deployment.source
        self.updates = workloads.update_stream(workload, seed)
        self.pending = next(self.updates)
        self.frozen = False
        self.applied = 0
        #: Wall seconds of each ``apply_update`` call since the last mark.
        self.durations: list[float] = []
        #: Wall seconds of each tick's ``speed_probe`` since the last mark.
        self.probes: list[float] = []

    async def run(self) -> None:
        tick = workloads.WORLD_TICK_S
        budget = tick * workloads.WORLD_TICK_BUDGET
        started = last = time.perf_counter()
        while not self.frozen:
            await asyncio.sleep(tick)
            if self.frozen:
                break
            now = time.perf_counter()
            self.clock.advance(now - last)
            last = now
            self._apply_due(now - started, now + budget)
            self.probes.append(speed_probe())

    def _apply_due(self, elapsed: float, deadline: float) -> None:
        apply_update = self.source.apply_update
        durations = self.durations
        clock = time.perf_counter
        update = self.pending
        while update.due <= elapsed:
            began = clock()
            if began > deadline:
                break  # carried over: the write path cannot keep up
            apply_update(
                ObjectKey(update.table, update.tid, update.column), update.value
            )
            durations.append(clock() - began)
            self.applied += 1
            update = next(self.updates)
        self.pending = update

    def take_durations(self) -> tuple[list[float], list[float]]:
        """Update and probe durations since the last call."""
        durations, self.durations = self.durations, []
        probes, self.probes = self.probes, []
        return durations, probes


def _dump_masters(source) -> dict:
    """Every master value, for the brute-force oracle."""
    tables = {}
    for physical in getattr(source, "shards", None) or (source,):
        for name in physical.table_names():
            table = physical.table(name)
            columns = [column.name for column in table.schema]
            rows = tables.setdefault(name, {"columns": columns, "rows": []})["rows"]
            for row in table.rows():
                rows.append([row.tid] + [row[column] for column in columns])
    for table in tables.values():
        table["rows"].sort()
    return tables


async def _control(reader, world: World, recorder: tracing.Recorder, stop) -> None:
    def reply(document: dict) -> None:
        sys.stdout.write(json.dumps(document) + "\n")
        sys.stdout.flush()

    while True:
        line = await reader.readline()
        if not line:
            break  # the runner went away
        command = json.loads(line)["cmd"]
        if command == "mark":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            durations, probes = world.take_durations()
            reply(
                {
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "maxrss_kb": usage.ru_maxrss,
                    "updates_applied": world.applied,
                    "update_samples": len(durations),
                    "update_p50_us": (
                        statistics.median(durations) * 1e6 if durations else None
                    ),
                    "probe_samples": len(probes),
                    "probe_p50_us": (
                        statistics.median(probes) * 1e6 if probes else None
                    ),
                }
            )
        elif command == "trace_on":
            reply({"unresolved": recorder.install()})
        elif command == "trace_off":
            recorder.uninstall()
            reply({"spans": len(recorder.spans)})
        elif command == "freeze":
            world.frozen = True
            reply({"masters": _dump_masters(world.source)})
        elif command == "exit":
            break
        else:
            reply({"error": f"unknown command {command!r}"})
    stop.set()


async def _stdin_reader() -> asyncio.StreamReader:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    return reader


async def main(args: argparse.Namespace) -> int:
    workload = workloads.resolve(args.workload, args.profile)
    deployment = workloads.build_deployment(workload, args.seed)
    defaults = workloads.SERVICE_DEFAULTS
    service = QueryService(
        deployment.system,
        max_inflight=defaults["max_inflight"],
        max_inflight_per_client=defaults["max_inflight_per_client"],
        result_ttl=defaults["result_ttl"],
        cost_model=deployment.cost_model,
        tick_interval=defaults["tick_interval"],
    )
    server = await serve(service, host="127.0.0.1", port=0)
    recorder = tracing.Recorder()
    world = World(deployment, workload, args.seed)
    stop = asyncio.Event()
    reader = await _stdin_reader()
    sys.stdout.write(
        json.dumps({"port": server.port, "subscribe_s": deployment.subscribe_s})
        + "\n"
    )
    sys.stdout.flush()
    world_task = asyncio.create_task(world.run())
    control_task = asyncio.create_task(_control(reader, world, recorder, stop))
    try:
        async with server:
            await stop.wait()
    finally:
        world.frozen = True
        for task in (world_task, control_task):
            task.cancel()
        await asyncio.gather(world_task, control_task, return_exceptions=True)
    if args.spans_out:
        recorder.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--spans-out", default="")
    raise SystemExit(asyncio.run(main(parser.parse_args())))
