"""The asyncio client for the query service's NDJSON protocol.

:class:`TrappClient` multiplexes any number of concurrent requests over
one connection: each request gets a fresh id, a background reader task
resolves replies by id, and callers simply ``await client.query(...)``
from as many tasks as they like.

    client = await TrappClient.connect("127.0.0.1", 7474, client_id="c1")
    answer = await client.query("monitor", "SELECT AVG(traffic) WITHIN 10 FROM links")
    print(answer.lo, answer.hi, answer.cached)
    await client.close()
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass

from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.errors import RemoteQueryError, ServiceError, WireTimeoutError
from repro.service.protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["TrappClient", "ClientAnswer"]


@dataclass(frozen=True, slots=True)
class ClientAnswer:
    """A bounded answer as decoded from the wire."""

    lo: float
    hi: float
    width: float
    exact: bool
    refreshed: tuple[int, ...]
    refresh_cost: float
    #: True when the server answered from its result cache.
    cached: bool
    #: True when the answer is wider than the requested constraint because
    #: one or more sources were unreachable (the bound still contains the
    #: true value — precision degraded, correctness did not).
    degraded: bool = False
    #: The source ids the server could not reach, when degraded.
    unreachable_sources: tuple[str, ...] = ()

    @property
    def bound(self) -> Bound:
        return Bound(self.lo, self.hi)

    def meets(self, max_width: float) -> bool:
        return width_within(self.width, max_width)


class TrappClient:
    """One connection to a TRAPP query server; safe for concurrent use."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: str,
        host: str | None = None,
        port: int | None = None,
        deadline: float | None = 30.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.client_id = client_id
        self._host = host
        self._port = port
        #: Per-request reply deadline in seconds (``None`` disables it).
        self.deadline = deadline
        #: How many times the client re-established its connection.
        self.reconnects = 0
        self._next_id = 0
        self._futures: dict[int, asyncio.Future] = {}
        self._closed = False
        self._failure: Exception | None = None
        self._read_task = asyncio.create_task(self._read_loop())

    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        client_id: str = "anon",
        deadline: float | None = 30.0,
    ) -> "TrappClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES + 2
        )
        client = cls(
            reader, writer, client_id, host=host, port=port, deadline=deadline
        )
        try:
            await client._request({"op": "hello", "client": client_id})
        except BaseException:
            await client.close()
            raise
        return client

    async def __aenter__(self) -> "TrappClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def query(self, cache_id: str, sql: str) -> ClientAnswer:
        """Execute TRAPP SQL against one cache; raises
        :class:`RemoteQueryError` on a server-side failure."""
        reply = await self._request(
            {"op": "query", "cache": cache_id, "sql": sql}
        )
        result = reply["result"]
        return ClientAnswer(
            lo=float(result["lo"]),
            hi=float(result["hi"]),
            width=float(result["width"]),
            exact=bool(result["exact"]),
            refreshed=tuple(result["refreshed"]),
            refresh_cost=float(result["refresh_cost"]),
            cached=bool(result["cached"]),
            degraded=bool(result.get("degraded", False)),
            unreachable_sources=tuple(result.get("unreachable_sources", ())),
        )

    async def ping(self) -> float:
        """Round-trip liveness probe; returns the server's clock reading."""
        reply = await self._request({"op": "ping"})
        return float(reply["now"])

    async def metrics(self) -> dict:
        """The server's full telemetry registry snapshot (PR 7):
        ``{"families": [{name, type, help, samples}]}``."""
        reply = await self._request({"op": "metrics"})
        return reply["metrics"]

    async def metrics_text(self) -> str:
        """The same snapshot as Prometheus-style exposition text."""
        reply = await self._request({"op": "metrics", "format": "text"})
        return str(reply["metrics_text"])

    async def trace(
        self, limit: int | None = None, client: str | None = None
    ) -> list[dict]:
        """Recently completed query spans (oldest first), optionally
        filtered by client id and truncated to the last ``limit``."""
        message: dict = {"op": "trace"}
        if limit is not None:
            message["limit"] = limit
        if client is not None:
            message["client"] = client
        reply = await self._request(message)
        return list(reply["traces"])

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._read_task
        with contextlib.suppress(Exception):
            self._writer.close()
            await self._writer.wait_closed()
        self._fail_pending(ServiceError("connection closed"))

    # ------------------------------------------------------------------
    async def _request(self, message: dict, _retry: bool = True) -> dict:
        """Send one message and await its reply.

        Two failure modes are bounded instead of fatal/hanging: a lost
        connection and a reply that never arrives within ``deadline``.
        Either triggers at most **one** reconnect (``_retry``) followed by
        a single re-send; a second failure surfaces as
        :class:`WireTimeoutError` (timeout) or the underlying
        :class:`ServiceError` (connection loss).  Requests are idempotent
        reads at the protocol level, so one bounded re-send is safe.
        """
        if self._closed:
            raise ServiceError("client is closed")
        if self._failure is not None:
            if not _retry:
                raise self._failure
            await self._reconnect()
            return await self._request(message, _retry=False)
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        try:
            self._writer.write(encode({**message, "id": request_id}))
            await self._writer.drain()
            if self.deadline is None:
                reply = await future
            else:
                reply = await asyncio.wait_for(future, self.deadline)
        except asyncio.TimeoutError:
            if _retry and not self._closed and self._host is not None:
                await self._reconnect()
                return await self._request(message, _retry=False)
            raise WireTimeoutError(
                f"no reply to {message.get('op', '?')!r} within "
                f"{self.deadline}s"
            ) from None
        except ServiceError:
            if _retry and not self._closed and self._host is not None:
                await self._reconnect()
                return await self._request(message, _retry=False)
            raise
        finally:
            self._futures.pop(request_id, None)
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise RemoteQueryError(
                str(error.get("kind", "ServiceError")),
                str(error.get("message", "unknown server error")),
            )
        return reply

    async def _reconnect(self) -> None:
        """Tear down the current connection and open a fresh one (once).

        Pending requests on the old connection are failed — their replies
        can never be matched after the socket is replaced.  The new
        connection re-sends ``hello`` so the server keeps attributing the
        session to the same client id.
        """
        if self._host is None or self._port is None:
            raise self._failure or ServiceError(
                "connection lost and no endpoint known for reconnect"
            )
        self._read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._read_task
        with contextlib.suppress(Exception):
            self._writer.close()
            await self._writer.wait_closed()
        self._fail_pending(ServiceError("connection reset during reconnect"))
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=MAX_LINE_BYTES + 2
        )
        self._failure = None
        self._read_task = asyncio.create_task(self._read_loop())
        self.reconnects += 1
        await self._request(
            {"op": "hello", "client": self.client_id}, _retry=False
        )

    async def _read_loop(self) -> None:
        failure: Exception = ServiceError("server closed the connection")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                reply = decode(line)
                future = self._futures.get(reply.get("id"))
                if future is not None and not future.done():
                    future.set_result(reply)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            failure = ServiceError(f"connection lost: {exc}")
        finally:
            # Terminal: without a reader, later requests could never be
            # answered — fail them fast instead of hanging.
            if not self._closed:
                self._failure = failure
            self._fail_pending(failure)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._futures.values():
            if not future.done():
                future.set_exception(exc)
        self._futures.clear()
