"""The single-process load generator: raw NDJSON over a few TCP connections.

One asyncio loop, ``CONNECTIONS`` sockets, no threads.  Requests carry a
per-request ``client`` field so the 32 logical users of the workload are
multiplexed over the sockets; a user always rides the same socket.

Open loop: requests are sent on the seeded schedule whether or not earlier
ones have been answered, and each is timed *from the instant it was due*
to the instant its reply line has been decoded — so a stall of the server
(or of this generator, which is reported as lateness) is charged to every
request it delays.  Closed loop: a fixed number of requests is kept
outstanding; completions per second is the capacity.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import time
from dataclasses import dataclass
from typing import Iterator

from repro.service.protocol import MAX_LINE_BYTES, decode, encode

import workloads

#: Give up on replies this long after the last request of a phase was sent.
DRAIN_TIMEOUT_S = 15.0
#: The sender sleeps until this long before a request is due, then yields
#: in a loop: the event loop's timer rounds up to whole milliseconds, and
#: a longer spin would make the scheduler treat this process as a CPU hog
#: and preempt it for whole time slices.
SPIN_BELOW_S = 0.002


@dataclass(slots=True)
class Sample:
    """One request: what was asked, when, and what came back."""

    statement: workloads.Statement
    client: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    bytes_out: int = 0
    bytes_in: int = 0
    #: ``None`` until a reply arrives; a reply with ``ok: false`` keeps
    #: the error kind and message here.
    ok: bool | None = None
    error: str = ""
    lo: float = 0.0
    hi: float = 0.0
    width: float = 0.0
    refreshed: int = 0
    cached: bool = False
    degraded: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def within_budget(self) -> bool:
        budget = self.statement.budget
        return self.degraded or self.width <= budget * (1 + 1e-6) + 1e-12

    @property
    def failed(self) -> bool:
        """Errors, refusals, missing replies and budget violations."""
        return not self.ok or not self.within_budget


@contextlib.contextmanager
def _no_gc_pauses():
    """Keep the collector out of a timed phase.

    A full collection walks every sample recorded so far and would show
    up as send lateness; the phase allocates no cycles worth reclaiming.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: dict[int, tuple[Sample | None, asyncio.Future | None]] = {}
        self.task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            reply = decode(line)
            done = time.perf_counter()
            sample, future = self.waiting.pop(reply.get("id"), (None, None))
            if sample is not None:
                sample.done = done
                sample.bytes_in = len(line)
                _fill(sample, reply)
            if future is not None and not future.done():
                future.set_result(reply)
        for _sample, future in self.waiting.values():
            if future is not None and not future.done():
                future.set_exception(ConnectionError("server closed the connection"))
        self.waiting.clear()


def _fill(sample: Sample, reply: dict) -> None:
    if not reply.get("ok"):
        sample.ok = False
        error = reply.get("error") or {}
        sample.error = f"{error.get('kind', 'unknown')}: {error.get('message', '')}"[:240]
        return
    result = reply["result"]
    sample.ok = True
    sample.lo = float(result["lo"])
    sample.hi = float(result["hi"])
    sample.width = float(result["width"])
    sample.refreshed = len(result["refreshed"])
    sample.cached = bool(result["cached"])
    sample.degraded = bool(result.get("degraded", False))


class LoadGenerator:
    """The benchmark's client side; ``async with`` closes its sockets."""

    def __init__(self, connections: list[_Connection], target: str) -> None:
        self._connections = connections
        self._target = target
        self._next_id = 0

    @classmethod
    async def connect(cls, host: str, port: int, target: str) -> "LoadGenerator":
        cores = os.cpu_count() or 1
        if workloads.CONNECTIONS > cores:
            raise RuntimeError(
                f"{workloads.CONNECTIONS} connections on {cores} cores: the "
                "generator would contend with itself; refusing to start"
            )
        connections = []
        for _ in range(workloads.CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES + 2
            )
            connections.append(_Connection(reader, writer))
        return cls(connections, target)

    async def __aenter__(self) -> "LoadGenerator":
        return self

    async def __aexit__(self, *exc_info) -> None:
        for connection in self._connections:
            connection.task.cancel()
            connection.writer.close()
        await asyncio.gather(
            *(connection.task for connection in self._connections),
            return_exceptions=True,
        )

    # ------------------------------------------------------------------
    def _connection_of(self, client: str) -> _Connection:
        return self._connections[int(client[1:]) % len(self._connections)]

    def _send(
        self, connection: _Connection, message: dict, sample, future
    ) -> int:
        self._next_id += 1
        message["id"] = self._next_id
        line = encode(message)
        connection.waiting[self._next_id] = (sample, future)
        connection.writer.write(line)
        return len(line)

    def _send_query(self, sample: Sample, future=None) -> None:
        sample.bytes_out = self._send(
            self._connection_of(sample.client),
            {
                "op": "query",
                "cache": self._target,
                "sql": sample.statement.sql,
                "client": sample.client,
            },
            sample,
            future,
        )
        sample.sent = time.perf_counter()

    async def call(self, message: dict, timeout: float = 30.0) -> dict:
        """One non-query op (``ping``, ``metrics``) on the first socket."""
        future = asyncio.get_running_loop().create_future()
        self._send(self._connections[0], dict(message), None, future)
        return await asyncio.wait_for(future, timeout)

    async def query(self, statement: workloads.Statement, client: str) -> Sample:
        """One query, awaited (the contract check's raw driver)."""
        sample = Sample(statement, client, due=time.perf_counter())
        future = asyncio.get_running_loop().create_future()
        self._send_query(sample, future)
        await asyncio.wait_for(future, DRAIN_TIMEOUT_S)
        return sample

    # ------------------------------------------------------------------
    async def open_loop(self, schedule: list[workloads.Request]) -> list[Sample]:
        """Send ``schedule`` on time; returns one sample per request."""
        clock = time.perf_counter
        with _no_gc_pauses():
            start = clock() + 0.02
            samples = [
                Sample(request.statement, request.client, start + request.due)
                for request in schedule
            ]
            for sample in samples:
                while True:
                    remaining = sample.due - clock()
                    if remaining <= 0:
                        break
                    if remaining > SPIN_BELOW_S:
                        await asyncio.sleep(remaining - SPIN_BELOW_S)
                    else:
                        await asyncio.sleep(0)
                self._send_query(sample)
            await self._drain()
        return samples

    async def closed_loop(
        self, statements: Iterator[workloads.Statement], seconds: float
    ) -> tuple[list[Sample], float]:
        """Keep ``CLOSED_LOOP_OUTSTANDING`` requests in flight for
        ``seconds``; returns the samples completed inside the window and
        the window's measured length."""
        clock = time.perf_counter
        loop = asyncio.get_running_loop()
        start = clock()
        deadline = start + seconds
        samples: list[Sample] = []

        async def worker(index: int) -> None:
            turn = 0
            while clock() < deadline:
                # Two users per worker, so per-client admission sees the
                # whole population without any user exceeding its allowance.
                client = workloads.user_id(
                    index + workloads.CLOSED_LOOP_OUTSTANDING * (turn % 2)
                )
                turn += 1
                sample = Sample(next(statements), client, due=clock())
                future = loop.create_future()
                self._send_query(sample, future)
                await future
                samples.append(sample)

        with _no_gc_pauses():
            await asyncio.gather(
                *(worker(i) for i in range(workloads.CLOSED_LOOP_OUTSTANDING))
            )
        inside = [s for s in samples if s.done <= deadline]
        return inside, deadline - start

    async def _drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(c.waiting for c in self._connections):
            if time.perf_counter() > deadline:
                for connection in self._connections:
                    connection.waiting.clear()  # unanswered: counted as failed
                return
            await asyncio.sleep(0.005)
