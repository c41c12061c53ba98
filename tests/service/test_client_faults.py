"""TrappClient under failure: deadlines, bounded reconnect, degraded flag."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import WireTimeoutError
from repro.extensions.batching import BatchedCostModel
from repro.faults import RetryPolicy
from repro.service import QueryService, TrappClient, serve
from repro.service.protocol import decode, encode

from tests.faults.double import FaultInjector, OutageWindow
from tests.service.conftest import CACHE_ID, build_netmon_system

SUM_SQL = "SELECT SUM(traffic) WITHIN 5 FROM links"


def make_service(system=None, **kwargs) -> QueryService:
    system = system if system is not None else build_netmon_system()
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    return QueryService(system, **kwargs)


def run(coro):
    return asyncio.run(coro)


async def serve_hello_only(hello: bool = True):
    """A server that answers ``hello`` (unless told not to) and then goes
    silent forever."""

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = decode(line)
                if hello and message.get("op") == "hello":
                    writer.write(
                        encode({"id": message["id"], "ok": True, "client": "x"})
                    )
                    await writer.drain()
                # Any other op: swallow the request, never reply.
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


# ----------------------------------------------------------------------
def test_deadline_turns_a_silent_server_into_wire_timeout():
    async def go():
        server, port = await serve_hello_only()
        try:
            client = await TrappClient.connect(
                "127.0.0.1", port, client_id="t", deadline=0.1
            )
            try:
                with pytest.raises(WireTimeoutError):
                    await client.query(CACHE_ID, SUM_SQL)
                # Exactly one bounded reconnect was attempted, not a loop.
                assert client.reconnects == 1
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()

    run(go())


def test_failed_hello_leaves_no_connection_behind():
    async def go():
        server, port = await serve_hello_only(hello=False)
        try:
            with pytest.raises(WireTimeoutError):
                await TrappClient.connect("127.0.0.1", port, deadline=0.05)
            # No read loop is left running on a connection nobody holds.
            assert not [
                task
                for task in asyncio.all_tasks()
                if "_read_loop" in repr(task.get_coro())
            ]
        finally:
            server.close()
            await server.wait_closed()

    run(go())


def test_client_survives_a_dropped_connection_with_one_reconnect():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            client = await TrappClient.connect(
                server.host, server.port, client_id="t", deadline=5.0
            )
            try:
                first = await client.query(CACHE_ID, SUM_SQL)
                assert first.meets(5)
                # Sever the transport underneath the client: the read
                # loop sees EOF and marks the connection failed.
                client._writer.transport.abort()
                await asyncio.sleep(0.05)
                second = await client.query(CACHE_ID, SUM_SQL)
                assert second.meets(5)
                assert client.reconnects == 1
            finally:
                await client.close()

    run(go())


def test_degraded_answers_cross_the_wire_flagged():
    async def go():
        system = build_netmon_system()
        service = make_service(
            system,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        FaultInjector(system.clock).add(
            OutageWindow("net", 0.0, float("inf"))
        ).install(service)
        async with await serve(service) as server:
            async with await TrappClient.connect(
                server.host, server.port, client_id="t"
            ) as client:
                answer = await client.query(CACHE_ID, SUM_SQL)
                assert answer.degraded
                assert answer.unreachable_sources == ("net",)
                assert not answer.meets(5)
                assert answer.hi > answer.lo

    run(go())


def test_healthy_answers_carry_no_degraded_fields():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            async with await TrappClient.connect(
                server.host, server.port, client_id="t"
            ) as client:
                answer = await client.query(CACHE_ID, SUM_SQL)
                assert not answer.degraded
                assert answer.unreachable_sources == ()

    run(go())
