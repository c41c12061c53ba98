"""The server's line splitter and its write-side backpressure.

The same request bytes must give the same replies however the network
cuts them into reads, and a client that pipelines without reading must
not make the server buffer replies without bound.
"""

from __future__ import annotations

import asyncio
import contextvars
import socket

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService, serve
from repro.service import server as server_module
from repro.service.protocol import MAX_LINE_BYTES, decode, encode

from tests.service.conftest import CACHE_ID, build_netmon_system


def make_service() -> QueryService:
    return QueryService(
        build_netmon_system(),
        cost_model=BatchedCostModel(setup=5.0, marginal=1.0),
    )


def counters(service: QueryService) -> dict:
    """Every counter sample of the registry: counts, not timings."""
    return {
        family["name"]: family["samples"]
        for family in service.telemetry.snapshot()["families"]
        if family["type"] == "counter"
    }


# ----------------------------------------------------------------------
# One line of each kind; ``{id}`` makes every request id distinct.
LINES = {
    "ping": '{{"id": {id}, "op": "ping"}}',
    "hello": '{{"id": {id}, "op": "hello", "client": "Zoë ☃ 𝄞"}}',
    "sum": (
        '{{"id": {id}, "op": "query", "cache": "' + CACHE_ID + '", '
        '"sql": "SELECT SUM(traffic) WITHIN 5 FROM links"}}'
    ),
    "avg": (
        '{{"id": {id}, "op": "query", "cache": "' + CACHE_ID + '", '
        '"sql": "SELECT AVG(traffic) WITHIN 0.5 FROM links", "client": "é"}}'
    ),
    "bad_sql": (
        '{{"id": {id}, "op": "query", "cache": "' + CACHE_ID + '", '
        '"sql": "SELECT FROM"}}'
    ),
    "unknown": '{{"id": {id}, "op": "frobnicate"}}',
    "undecodable": "this is not json ☃",
    "non_finite": '{{"id": NaN, "op": "ping"}}',
    "blank": " \t\r",
}
OVERSIZED = b'{"id": 0, "op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'


def request_bytes(kinds: list[str]) -> bytes:
    return b"".join(
        LINES[kind].format(id=index + 1).encode("utf-8") + b"\n"
        for index, kind in enumerate(kinds)
    )


class _Transport(asyncio.Transport):
    """Records what the server writes; never pushes back."""

    def __init__(self, protocol: asyncio.Protocol) -> None:
        super().__init__()
        self._protocol = protocol
        self._closing = False
        self.written: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.written.append(bytes(data))

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            asyncio.get_running_loop().call_soon(
                self._protocol.connection_lost, None
            )

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def serve_chunks(*reads: list[bytes]) -> tuple[dict, list, dict]:
    """Feed each list of chunks to one connection, as reads, letting
    every query finish after each list: its replies by id, its id-less
    replies, its counters."""

    async def go():
        service = make_service()
        connection = server_module._Connection(server_module._Wire(service))
        transport = _Transport(connection)
        connection.connection_made(transport)
        for chunks in reads:
            for chunk in chunks:
                connection.data_received(chunk)
            while connection.tasks:
                await asyncio.wait(list(connection.tasks))
        transport.close()
        await asyncio.sleep(0)
        return transport.written, counters(service)

    written, counted = asyncio.run(go())
    by_id, anonymous = {}, []
    for line in written:
        request_id = decode(line)["id"]
        if request_id is None:
            anonymous.append(line)
        else:
            assert request_id not in by_id
            by_id[request_id] = line
    return by_id, sorted(anonymous), counted


def cut(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
    return [data[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@given(
    kinds=st.lists(st.sampled_from(sorted(LINES)), min_size=1, max_size=12),
    cuts=st.one_of(st.none(), st.lists(st.integers(0, 10_000), max_size=12)),
    oversized=st.booleans(),
    tail_cuts=st.lists(st.integers(0, len(OVERSIZED)), max_size=3),
)
@example(
    kinds=["hello", "sum", "blank", "undecodable", "sum", "avg", "ping"],
    cuts=None,
    oversized=True,
    tail_cuts=[5],
)
@settings(max_examples=40, deadline=None)
def test_replies_do_not_depend_on_how_the_bytes_are_cut(
    kinds, cuts, oversized, tail_cuts
):
    """``cuts=None`` delivers the lines a byte at a time, which also splits
    every multibyte UTF-8 character; a list cuts at those offsets, so a
    read may hold several lines.  An oversized line closes the
    connection, so it comes last, once every query before it answered."""
    data = request_bytes(kinds)
    if cuts is None:
        chunks = [data[i : i + 1] for i in range(len(data))]
    else:
        chunks = cut(data, cuts)
    tail, tail_chunks = [], []
    if oversized:
        tail, tail_chunks = [OVERSIZED], cut(OVERSIZED, tail_cuts)
    whole = serve_chunks([data], tail)
    assert serve_chunks(chunks, tail_chunks) == whole
    by_id, anonymous, counted = whole
    assert len(by_id) == sum(
        kind not in ("blank", "undecodable", "non_finite") for kind in kinds
    )
    assert len(anonymous) == (
        sum(kind in ("undecodable", "non_finite") for kind in kinds) + oversized
    )
    errors = {
        sample["labels"]["kind"]: sample["value"]
        for sample in counted["trapp_wire_errors_total"]
    }
    assert errors.get("oversized_line", 0) == oversized


def test_a_last_line_without_its_newline_is_answered_at_end_of_input():
    async def go():
        connection = server_module._Connection(server_module._Wire(make_service()))
        transport = _Transport(connection)
        connection.connection_made(transport)
        connection.data_received(b'{"id": 1, "op": "ping"}\n{"id": 2, "op": "pi')
        connection.data_received(b'ng"}')
        assert [decode(line)["id"] for line in transport.written] == [1]
        assert connection.eof_received() is None
        transport.close()
        await asyncio.sleep(0)
        return [decode(line)["id"] for line in transport.written]

    assert asyncio.run(go()) == [1, 2]


# ----------------------------------------------------------------------
def test_a_client_that_never_reads_leaves_the_server_buffer_bounded():
    requests, name = 2_000, "x" * 500

    async def go():
        service = make_service()
        async with await serve(service) as server:
            # Small kernel buffers on the replies' way, so the server's
            # own write buffer is what fills; bounded ones on the
            # requests' way, so the sender feels the server stop reading.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                sock, (server.host, server.port)
            )
            reader, writer = await asyncio.open_connection(sock=sock)
            while not server._wire.connections:
                await asyncio.sleep(0.01)
            (connection,) = server._wire.connections
            transport = connection.transport
            server_socket = transport.get_extra_info("socket")
            server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            # A low high-water mark, so that a few replies reach it.
            transport.set_write_buffer_limits(high=4096)
            _, high = transport.get_write_buffer_limits()

            async def pipeline():
                # Each reply echoes a long client name, so replies outgrow
                # the kernel's buffers quickly.
                for index in range(requests):
                    writer.write(encode({"id": index, "op": "hello", "client": name}))
                    await writer.drain()

            sender = asyncio.create_task(pipeline())
            for _ in range(200):
                if connection.paused:
                    break
                await asyncio.sleep(0.01)
            assert connection.paused
            # Paused, the server neither reads nor answers: its buffer
            # holds at most one reply past the high-water mark.
            reply_bytes = len(encode({"id": requests, "ok": True, "client": name}))
            for _ in range(5):
                await asyncio.sleep(0.02)
                assert transport.get_write_buffer_size() <= high + reply_bytes
            assert not sender.done()

            # Reading again drains the buffer and resumes the connection.
            seen = set()
            while len(seen) < requests:
                reply = decode(await reader.readline())
                assert reply["ok"] is True
                seen.add(reply["id"])
            await sender
            assert seen == set(range(requests))
            assert not connection.paused
            writer.close()
            await writer.wait_closed()

    asyncio.run(go())


# ----------------------------------------------------------------------
def test_a_continuation_runs_the_rest_of_a_started_query():
    """A query suspended outside any task finishes in one, in the context
    its first step ran in; cancelled before its task ran, it cancels what
    it was waiting on, as the task would have had it run that first step
    itself."""
    span = contextvars.ContextVar("span", default=None)

    async def query(delay: float) -> str:
        # A token set in the first step is reset after the suspension,
        # which raises ValueError in any other context.
        token = span.set("query")
        try:
            await asyncio.sleep(delay)
            return span.get()
        finally:
            span.reset(token)

    def start(delay: float):
        started, context = query(delay), contextvars.copy_context()
        waiting = context.run(started.send, None)
        return server_module._Continuation(started, waiting, context), waiting

    async def go():
        loop = asyncio.get_running_loop()
        continuation, _ = start(0.001)
        finished = loop.create_task(continuation)
        assert await finished == "query"
        assert span.get() is None
        continuation, waiting = start(60.0)
        cancelled = loop.create_task(continuation)
        cancelled.cancel()
        await asyncio.wait([cancelled])
        assert cancelled.cancelled() and waiting.cancelled()

    asyncio.run(go())
