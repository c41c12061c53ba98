"""Server error paths: every protocol failure is counted, and the
connection/session accounting stays consistent afterwards."""

from __future__ import annotations

import asyncio

from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService, serve
from repro.service.protocol import MAX_LINE_BYTES, decode, encode

from tests.service.conftest import CACHE_ID, build_netmon_system


def make_service(**kwargs) -> QueryService:
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    return QueryService(build_netmon_system(), **kwargs)


def run(coro):
    return asyncio.run(coro)


def wire_errors(service: QueryService, kind: str) -> int:
    return int(
        service.telemetry.registry.value_of(
            "trapp_wire_errors_total", kind=kind
        )
    )


def active_connections(service: QueryService) -> int:
    return int(
        service.telemetry.registry.value_of("trapp_connections_active")
    )


async def wait_until(predicate, timeout: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
def test_oversized_line_is_counted_and_connection_closed():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=MAX_LINE_BYTES + 2
            )
            writer.write(
                b'{"id": 1, "op": "ping", "pad": "'
                + b"x" * MAX_LINE_BYTES
                + b'"}\n'
            )
            await writer.drain()
            reply = decode(await reader.readline())
            assert reply["ok"] is False
            assert "oversized" in reply["error"]["message"]
            assert await reader.readline() == b""  # server hung up
            writer.close()
            await wait_until(lambda: active_connections(service) == 0)
        assert wire_errors(service, "oversized_line") == 1
        assert int(
            service.telemetry.registry.value_of("trapp_connections_total")
        ) == 1

    run(go())


def test_malformed_json_and_unknown_op_keep_connection_alive():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=MAX_LINE_BYTES + 2
            )
            writer.write(b"this is not json\n")
            writer.write(encode({"id": 2, "op": "frobnicate"}))
            # The counters are the ``metrics`` op's; ``stats`` is no op.
            writer.write(encode({"id": 3, "op": "stats"}))
            writer.write(encode({"id": 4, "op": "ping"}))
            await writer.drain()
            first = decode(await reader.readline())
            second = decode(await reader.readline())
            retired = decode(await reader.readline())
            third = decode(await reader.readline())
            assert first["ok"] is False and first["id"] is None
            assert second["ok"] is False and second["id"] == 2
            assert "unknown op" in second["error"]["message"]
            assert retired["ok"] is False and retired["id"] == 3
            assert "unknown op" in retired["error"]["message"]
            assert third["ok"] is True and "now" in third
            writer.close()
            await wait_until(lambda: active_connections(service) == 0)
        assert wire_errors(service, "undecodable") == 1
        assert wire_errors(service, "unknown_op") == 2

    run(go())


def test_midpipeline_disconnect_counts_and_unwinds_session_accounting():
    async def go():
        # A visible network delay parks the query inside the scheduler
        # tick long enough for the client to vanish under it.
        service = make_service(network_delay=0.2)
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=MAX_LINE_BYTES + 2
            )
            writer.write(
                encode(
                    {
                        "id": 1,
                        "op": "query",
                        "cache": CACHE_ID,
                        "sql": "SELECT SUM(traffic) WITHIN 5 FROM links",
                        "client": "dropper",
                    }
                )
            )
            await writer.drain()
            # Wait for the query to reach the scheduler, then vanish.
            await wait_until(
                lambda: service._inflight_by_client.get("dropper", 0) > 0
            )
            writer.close()
            await wait_until(
                lambda: wire_errors(service, "disconnect") >= 1
            )
            await wait_until(lambda: active_connections(service) == 0)
            # The cancelled query unwound every in-flight ledger.
            assert service._inflight_by_client == {}
            assert service._inflight_by_cache == {}

    run(go())
