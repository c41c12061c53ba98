"""The asyncio NDJSON server front-end of the query service.

``serve()`` binds a :class:`~repro.service.service.QueryService` to a TCP
port.  Each connection is an :class:`asyncio.Protocol` whose read
callback splits the bytes it is handed into lines and answers each one
there and then.  A ``query`` runs :meth:`QueryService.query` eagerly, up
to its first suspension, inside that callback: an answer the service
already holds (a result-cache or degraded-tier hit), or an error raised
before any await, is written back at once.  Only a query that suspends
— it executes, or waits on an identical query in flight — continues, in
a task that keeps the :mod:`contextvars` context its first step ran in.
So one slow refresh does not head-of-line-block the connection, queries
from many connections coalesce in the shared scheduler, and the client
matches replies by the echoed ``id``.

A query reply is framed around its answer's payload, encoded the first
time that answer object is sent and kept beside the answer in the
result cache for as long as the cache holds it: a hit encodes nothing.  When a
connection's write buffer passes its high-water mark the connection
stops reading, and stops answering lines it has read, until the buffer
drains.

Besides ``hello``/``ping``/``query``, ``metrics`` returns the full
telemetry registry snapshot (``format: "text"`` selects the Prometheus
exposition instead) and ``trace`` the most recent completed query spans.
The server meters itself too — connection open/active counts and a
``trapp_wire_errors_total`` counter covering oversized lines,
undecodable payloads, unknown ops, and client disconnects.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools

from repro.errors import WireProtocolError
from repro.service.protocol import (
    MAX_LINE_BYTES,
    EncodedAnswer,
    answer_payload,
    decode,
    encode,
    error_payload,
    json_safe,
)
from repro.service.service import QueryService, ServiceResult
from repro.telemetry import render_text

__all__ = ["TrappServer", "serve"]


class _Wire:
    """What the connections of one ``serve()`` call share: the service,
    the server's own instruments and the open connections."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        registry = service.telemetry.registry
        self.errors = registry.counter(
            "trapp_wire_errors_total",
            "Protocol-level failures: oversized lines, undecodable "
            "payloads, unknown ops, client disconnects",
            ("kind",),
        )
        self.connections_total = registry.counter(
            "trapp_connections_total",
            "Connections accepted since the server started",
        )
        self.connections_active = registry.gauge(
            "trapp_connections_active",
            "Connections currently open",
        )
        self.connections: set[_Connection] = set()

    def answer_line(self, request_id, result: ServiceResult) -> bytes:
        """The reply line carrying ``result``.  Its answer's payload is
        built and encoded on the first reply that carries it, and kept
        beside the answer in the result cache for the replies after."""
        answer = result.answer
        results = self.service.results
        encoded = results.attachment(answer)
        if encoded is None:
            try:
                encoded = EncodedAnswer.of(
                    encode(answer_payload(answer, result.cached))
                )
            except Exception as exc:  # an answer the wire cannot carry
                return _error_line(request_id, exc)
            results.attach(answer, encoded)
        return encoded.line(request_id, result.cached)


class TrappServer:
    """A running service endpoint; use as an async context manager."""

    def __init__(
        self, service: QueryService, server: asyncio.base_events.Server, wire: _Wire
    ):
        self.service = service
        self._server = server
        self._wire = wire

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    async def close(self) -> None:
        """Stop listening and close every open connection (its replies
        still buffered are sent first; its queries in flight are
        cancelled)."""
        self._server.close()
        # Before waiting: from Python 3.12.1 on, ``wait_closed`` waits for
        # every accepted connection to detach.
        for connection in list(self._wire.connections):
            connection.transport.close()
        await self._server.wait_closed()

    async def __aenter__(self) -> "TrappServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def serve(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> TrappServer:
    """Start serving ``service`` on ``host:port`` (0 = ephemeral port)."""
    wire = _Wire(service)
    server = await asyncio.get_running_loop().create_server(
        lambda: _Connection(wire), host, port
    )
    return TrappServer(service, server, wire)


# ----------------------------------------------------------------------
class _Connection(asyncio.Protocol):
    """One client connection: request lines in, reply lines out."""

    def __init__(self, wire: _Wire) -> None:
        self.wire = wire
        self.client = "anon"
        self.transport: asyncio.Transport | None = None
        #: Bytes received and not yet answered: the tail of a line, or
        #: whole lines held while writing is paused.
        self.buffer = bytearray()
        #: How much of ``buffer`` is known to hold no newline.
        self.scanned = 0
        self.tasks: set[asyncio.Task] = set()
        #: The transport's write buffer is past its high-water mark.
        self.paused = False
        #: An oversized line ended the connection: nothing more is read.
        self.refused = False

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.wire.connections.add(self)
        self.wire.connections_total.inc()
        self.wire.connections_active.inc()

    def connection_lost(self, exc: Exception | None) -> None:
        self.wire.connections.discard(self)
        if exc is not None:
            self.wire.errors.labels(kind="disconnect").inc()
        # Each cancelled query unwinds its in-flight accounting through
        # the service's finally blocks, and is counted as a disconnect
        # when its task ends.
        for task in list(self.tasks):
            task.cancel()
        self.wire.connections_active.dec()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._answer_lines()

    def eof_received(self) -> None:
        # A last line without its newline is still a request.  Returning
        # None closes the transport once the replies written are sent.
        if not self.refused and self.buffer:
            self.buffer += b"\n"
            self._answer_lines()

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()
        self._answer_lines()

    # -- lines ---------------------------------------------------------
    def _answer_lines(self) -> None:
        """Answer every complete line buffered, until writing pauses or
        the connection closes."""
        if self.transport.is_closing():
            return
        buffer = self.buffer
        start = 0
        # A line arriving in many reads is searched once, not once a read.
        scan = self.scanned
        while not self.paused:
            end = buffer.find(b"\n", scan)
            if end < 0:
                scan = len(buffer)
                break
            if end - start > MAX_LINE_BYTES:
                self._refuse_oversized()
                return
            line = bytes(buffer[start:end])
            start = scan = end + 1
            self._answer(line)
            if self.refused:
                return
        del buffer[:start]
        self.scanned = scan - start
        if not self.paused and len(buffer) > MAX_LINE_BYTES:
            self._refuse_oversized()

    def _refuse_oversized(self) -> None:
        self.refused = True
        self.buffer.clear()
        self.wire.errors.labels(kind="oversized_line").inc()
        self._write(
            _error_line(None, WireProtocolError("oversized protocol line"))
        )
        self.transport.close()

    def _answer(self, line: bytes) -> None:
        """Answer one line; no exception leaves here (one would end the
        transport, and every request on it)."""
        if not line.strip():
            return
        try:
            message = decode(line)
        except WireProtocolError as exc:
            self.wire.errors.labels(kind="undecodable").inc()
            self._write(_error_line(None, exc))
            return
        request_id = message.get("id")
        try:
            reply = self._reply(message, request_id)
        except Exception as exc:  # a bad argument to an op
            reply = _error_line(request_id, exc)
        if reply is not None:
            self._write(reply)

    def _reply(self, message: dict, request_id) -> bytes | None:
        """The reply line to ``message``; ``None`` when a query goes on
        in a task that writes its reply itself."""
        op = message.get("op")
        if op == "query":
            return self._query(message, request_id)
        service = self.wire.service
        if op == "hello":
            self.client = str(message.get("client", "anon"))
            reply = {"id": request_id, "ok": True, "client": self.client}
        elif op == "ping":
            reply = {"id": request_id, "ok": True, "now": service.system.clock.now()}
        elif op == "metrics":
            snapshot = service.telemetry.snapshot()
            if message.get("format") == "text":
                reply = {
                    "id": request_id,
                    "ok": True,
                    "metrics_text": render_text(snapshot),
                }
            else:
                reply = {"id": request_id, "ok": True, "metrics": json_safe(snapshot)}
        elif op == "trace":
            limit = message.get("limit")
            traces = service.telemetry.tracer.recent(
                limit=int(limit) if limit is not None else None,
                client=message.get("client"),
            )
            reply = {"id": request_id, "ok": True, "traces": json_safe(traces)}
        else:
            self.wire.errors.labels(kind="unknown_op").inc()
            return _error_line(request_id, WireProtocolError(f"unknown op {op!r}"))
        return encode(reply)

    def _query(self, message: dict, request_id) -> bytes | None:
        """Run the query up to its first suspension, here; a query that
        suspends goes on in a task, in the same context."""
        query = self.wire.service.query(
            str(message.get("cache", "")),
            str(message.get("sql", "")),
            client_id=str(message.get("client", self.client)),
        )
        context = contextvars.copy_context()
        try:
            waiting = context.run(query.send, None)
        except StopIteration as done:
            return self.wire.answer_line(request_id, done.value)
        except (Exception, asyncio.CancelledError) as exc:
            return _error_line(request_id, exc)
        task = asyncio.get_running_loop().create_task(
            _Continuation(query, waiting, context)
        )
        self.tasks.add(task)
        task.add_done_callback(
            functools.partial(self._finished, request_id), context=context
        )
        return None

    def _finished(self, request_id, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if task.cancelled():
            # The connection dropped (or the server is closing) with this
            # query mid-pipeline.
            self.wire.errors.labels(kind="disconnect").inc()
            return
        exc = task.exception()
        if exc is not None:
            self._write(_error_line(request_id, exc))
        else:
            self._write(self.wire.answer_line(request_id, task.result()))

    def _write(self, line: bytes) -> None:
        if self.transport.is_closing():
            # The client vanished between asking and being answered.
            self.wire.errors.labels(kind="disconnect").inc()
            return
        self.transport.write(line)


def _error_line(request_id, exc: BaseException) -> bytes:
    return encode({"id": request_id, "ok": False, "error": error_payload(exc)})


class _Continuation:
    """The rest of a query coroutine whose first step already ran outside
    any task, as a coroutine a task can drive.

    The task's first step gets back what the query suspended on, so the
    task waits on it as if it had run that step itself; every later step,
    and every exception the task throws in, goes to the query, run in the
    context its first step ran in (a token set there is reset there).
    """

    __slots__ = ("_query", "_waiting", "_context")

    _HANDED_OVER = object()

    def __init__(self, query, waiting, context: contextvars.Context) -> None:
        self._query = query
        self._waiting = waiting
        self._context = context

    def send(self, value):
        waiting = self._waiting
        if waiting is self._HANDED_OVER:
            return self._context.run(self._query.send, value)
        self._waiting = self._HANDED_OVER
        return waiting

    def throw(self, exc, *rest):
        waiting = self._waiting
        self._waiting = self._HANDED_OVER
        if isinstance(waiting, asyncio.Future):
            # Cancelled before its first step: what the task would have
            # cancelled had it been waiting on it.
            waiting.cancel()
        return self._context.run(self._query.throw, exc, *rest)

    def close(self) -> None:
        self._context.run(self._query.close)

    def __await__(self):
        return self

    def __next__(self):
        return self.send(None)

    def __getattr__(self, name: str):
        # The query's name, code and frame, for the task's repr and stack.
        return getattr(self._query, name)
