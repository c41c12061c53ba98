"""End-to-end NDJSON wire protocol: serve() + TrappClient over localhost."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import RemoteQueryError
from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService, TrappClient, serve
from repro.service.protocol import decode, encode

from tests.service.conftest import CACHE_ID, build_netmon_system, metric

SUM_SQL = "SELECT SUM(traffic) WITHIN 5 FROM links"


def make_service(**kwargs) -> QueryService:
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    return QueryService(build_netmon_system(), **kwargs)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
def test_three_clients_query_concurrently():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            clients = [
                await TrappClient.connect(
                    server.host, server.port, client_id=f"c{i}"
                )
                for i in range(3)
            ]
            try:
                sqls = [
                    SUM_SQL,
                    "SELECT AVG(traffic) WITHIN 0.5 FROM links",
                    "SELECT COUNT(*) WITHIN 0 FROM links WHERE traffic > 110",
                ]
                answers = await asyncio.gather(
                    *(
                        client.query(CACHE_ID, sql)
                        for client, sql in zip(clients, sqls)
                    )
                )
                for answer, width in zip(answers, (5, 0.5, 0)):
                    assert answer.meets(width)
                    assert answer.hi >= answer.lo
                snapshot = await clients[0].metrics()
                assert metric(snapshot, "trapp_queries_total", outcome="served") == 3
                # All three in-flight plans went through one shared tick.
                assert metric(
                    snapshot, "trapp_scheduler_events_total", event="tick"
                ) == 1
            finally:
                for client in clients:
                    await client.close()

    run(go())


def test_pipelined_requests_on_one_connection():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            async with await TrappClient.connect(
                server.host, server.port, client_id="solo"
            ) as client:
                answers = await asyncio.gather(
                    client.query(CACHE_ID, SUM_SQL),
                    client.query(CACHE_ID, SUM_SQL),
                    client.query(CACHE_ID, "SELECT MIN(latency) WITHIN 0.1 FROM links"),
                )
                assert answers[0].bound == answers[1].bound
                # One of the two identical queries rode the other's flight.
                assert sorted([answers[0].cached, answers[1].cached]) == [False, True]

    run(go())


def test_ping_and_server_clock():
    async def go():
        service = make_service()
        service.system.clock.advance(42.0)  # already at 100 from aging
        async with await serve(service) as server:
            async with await TrappClient.connect(server.host, server.port) as client:
                assert await client.ping() == pytest.approx(142.0)

    run(go())


def test_bad_sql_is_reported_not_fatal():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            async with await TrappClient.connect(server.host, server.port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    await client.query(CACHE_ID, "SELEKT nonsense")
                assert excinfo.value.kind == "SqlSyntaxError"
                # The connection survives the failed query.
                answer = await client.query(CACHE_ID, SUM_SQL)
                assert answer.meets(5)

    run(go())


def test_unknown_op_and_malformed_line():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(encode({"id": 1, "op": "frobnicate"}))
                await writer.drain()
                reply = decode(await reader.readline())
                assert reply["id"] == 1 and reply["ok"] is False
                assert reply["error"]["kind"] == "WireProtocolError"

                writer.write(b"this is not json\n")
                await writer.drain()
                reply = decode(await reader.readline())
                assert reply["ok"] is False
            finally:
                writer.close()
                await writer.wait_closed()

    run(go())


def test_admission_error_kind_travels_the_wire():
    async def go():
        service = make_service(precision_floor=1.0)
        async with await serve(service) as server:
            async with await TrappClient.connect(server.host, server.port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    await client.query(
                        CACHE_ID, "SELECT SUM(traffic) WITHIN 0.01 FROM links"
                    )
                assert excinfo.value.kind == "AdmissionError"

    run(go())


def test_infinite_endpoints_stay_strict_json():
    """MIN over an empty match with no WITHIN has infinite endpoints; the
    wire line must still be strict JSON (no bare Infinity tokens)."""
    sql = "SELECT MIN(traffic) FROM links WHERE traffic < -1"

    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(encode({"id": 1, "op": "query", "cache": CACHE_ID,
                                     "sql": sql}))
                await writer.drain()
                line = await reader.readline()
                assert b"Infinity" not in line
                # A strict parser accepts the line.
                reply = json.loads(
                    line, parse_constant=lambda token: pytest.fail(token)
                )
                assert reply["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()
            # And the bundled client decodes the sentinels back to floats.
            async with await TrappClient.connect(server.host, server.port) as client:
                answer = await client.query(CACHE_ID, sql)
                assert answer.lo == float("inf")
                assert answer.hi == float("inf")

    run(go())


def test_protocol_payload_shape():
    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(
                    encode(
                        {
                            "id": 7,
                            "op": "query",
                            "cache": CACHE_ID,
                            "sql": SUM_SQL,
                            "client": "raw",
                        }
                    )
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["id"] == 7 and reply["ok"] is True
                result = reply["result"]
                assert set(result) == {
                    "lo", "hi", "width", "exact", "refreshed",
                    "refresh_cost", "cached",
                }
                assert result["hi"] - result["lo"] == pytest.approx(
                    result["width"]
                )
            finally:
                writer.close()
                await writer.wait_closed()

    run(go())
