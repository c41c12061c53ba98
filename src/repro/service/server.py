"""The asyncio NDJSON server front-end of the query service.

``serve()`` binds a :class:`~repro.service.service.QueryService` to a TCP
port.  Each connection may pipeline requests: ``query`` ops run as
independent tasks (so one slow refresh does not head-of-line-block the
connection, and queries from many connections coalesce in the shared
scheduler), while replies are serialized per connection and matched by
the client via the echoed ``id``.

Besides ``hello``/``ping``/``query``, the server exposes the
PR 7 observability surface: ``metrics`` returns the full telemetry
registry snapshot (``format: "text"`` selects the Prometheus exposition
instead) and ``trace`` the most recent completed query spans.  The
server meters itself too — connection open/active counts and a
``trapp_wire_errors_total`` counter covering oversized lines,
undecodable payloads, unknown ops, and client disconnects.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.errors import TrappError, WireProtocolError
from repro.service.protocol import (
    MAX_LINE_BYTES,
    answer_payload,
    decode,
    encode,
    error_payload,
    json_safe,
)
from repro.service.service import QueryService
from repro.telemetry import render_text

__all__ = ["TrappServer", "serve"]


class _WireTelemetry:
    """The server's own instruments, bound once per ``serve()`` call."""

    def __init__(self, service: QueryService) -> None:
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


class TrappServer:
    """A running service endpoint; use as an async context manager."""

    def __init__(self, service: QueryService, server: asyncio.base_events.Server):
        self.service = service
        self._server = server

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def __aenter__(self) -> "TrappServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def serve(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> TrappServer:
    """Start serving ``service`` on ``host:port`` (0 = ephemeral port)."""

    wire = _WireTelemetry(service)

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            await _handle_connection(service, wire, reader, writer)
        except asyncio.CancelledError:
            # Loop teardown cancels in-flight connection handlers; ending
            # normally here keeps asyncio.streams' done-callback (which
            # calls task.exception() unconditionally) from logging it.
            pass

    server = await asyncio.start_server(
        handler, host, port, limit=MAX_LINE_BYTES + 2
    )
    return TrappServer(service, server)


# ----------------------------------------------------------------------
async def _handle_connection(
    service: QueryService,
    wire: _WireTelemetry,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    write_lock = asyncio.Lock()
    connection_client = "anon"
    tasks: set[asyncio.Task] = set()
    wire.connections_total.inc()
    wire.connections_active.inc()
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # line exceeded the stream limit
                wire.errors.labels(kind="oversized_line").inc()
                await _send(
                    writer,
                    write_lock,
                    {
                        "id": None,
                        "ok": False,
                        "error": error_payload(
                            WireProtocolError("oversized protocol line")
                        ),
                    },
                )
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                message = decode(line)
            except WireProtocolError as exc:
                wire.errors.labels(kind="undecodable").inc()
                await _send(
                    writer,
                    write_lock,
                    {"id": None, "ok": False, "error": error_payload(exc)},
                )
                continue
            request_id = message.get("id")
            op = message.get("op")
            if op == "hello":
                connection_client = str(message.get("client", "anon"))
                await _send(
                    writer,
                    write_lock,
                    {"id": request_id, "ok": True, "client": connection_client},
                )
            elif op == "ping":
                await _send(
                    writer,
                    write_lock,
                    {
                        "id": request_id,
                        "ok": True,
                        "now": service.system.clock.now(),
                    },
                )
            elif op == "metrics":
                snapshot = service.telemetry.snapshot()
                if message.get("format") == "text":
                    reply = {
                        "id": request_id,
                        "ok": True,
                        "metrics_text": render_text(snapshot),
                    }
                else:
                    reply = {
                        "id": request_id,
                        "ok": True,
                        "metrics": json_safe(snapshot),
                    }
                await _send(writer, write_lock, reply)
            elif op == "trace":
                limit = message.get("limit")
                await _send(
                    writer,
                    write_lock,
                    {
                        "id": request_id,
                        "ok": True,
                        "traces": json_safe(
                            service.telemetry.tracer.recent(
                                limit=int(limit) if limit is not None else None,
                                client=message.get("client"),
                            )
                        ),
                    },
                )
            elif op == "query":
                task = asyncio.create_task(
                    _run_query(
                        service,
                        wire,
                        writer,
                        write_lock,
                        message,
                        message.get("client", connection_client),
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            else:
                wire.errors.labels(kind="unknown_op").inc()
                await _send(
                    writer,
                    write_lock,
                    {
                        "id": request_id,
                        "ok": False,
                        "error": error_payload(
                            WireProtocolError(f"unknown op {op!r}")
                        ),
                    },
                )
    except ConnectionError:
        wire.errors.labels(kind="disconnect").inc()
    finally:
        for task in tasks:
            task.cancel()
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        wire.connections_active.dec()


async def _run_query(
    service: QueryService,
    wire: _WireTelemetry,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    message: dict,
    client_id: str,
) -> None:
    request_id = message.get("id")
    try:
        result = await service.query(
            str(message.get("cache", "")),
            str(message.get("sql", "")),
            client_id=str(client_id),
        )
        reply = {
            "id": request_id,
            "ok": True,
            "result": answer_payload(result.answer, result.cached),
        }
    except asyncio.CancelledError:
        # The connection dropped (or the server is closing) with this
        # query mid-pipeline; its in-flight accounting unwound through
        # the service's finally blocks.
        wire.errors.labels(kind="disconnect").inc()
        raise
    except TrappError as exc:
        reply = {"id": request_id, "ok": False, "error": error_payload(exc)}
    except Exception as exc:  # never take the connection down with a query
        reply = {"id": request_id, "ok": False, "error": error_payload(exc)}
    try:
        await _send(writer, write_lock, reply)
    except ConnectionError:
        # Client vanished between answering and replying.
        wire.errors.labels(kind="disconnect").inc()


async def _send(
    writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: dict
) -> None:
    async with write_lock:
        writer.write(encode(message))
        await writer.drain()
