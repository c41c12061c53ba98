"""End-to-end NDJSON wire protocol: serve() + TrappClient over localhost."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.errors import RemoteQueryError, SqlSyntaxError
from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService, TrappClient, serve
from repro.service.protocol import (
    EncodedAnswer,
    answer_payload,
    decode,
    encode,
    error_payload,
    json_safe,
)

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


def test_closing_the_server_closes_its_open_connections():
    async def go():
        service = make_service()
        server = await serve(service)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(encode({"id": 1, "op": "ping"}))
        assert decode(await reader.readline())["ok"] is True
        # A client still connected neither holds the close up nor is left
        # open by it.
        await asyncio.wait_for(server.close(), 5.0)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await writer.wait_closed()

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


# ----------------------------------------------------------------------
# The one encoder
# ----------------------------------------------------------------------
REPLIES = [
    {"id": 1, "ok": True, "result": answer_payload(
        BoundedAnswer(Bound(-3.25, 1e300), frozenset({4, 2, 9}), 7.5), cached=False,
    )},
    {"id": "q-2", "ok": True, "result": answer_payload(
        BoundedAnswer(
            Bound(float("-inf"), float("inf")), degraded=True,
            unreachable_sources=("net/0", "net/3"),
        ),
        cached=True,
    )},
    {"id": 3, "ok": False, "error": error_payload(SqlSyntaxError("bad « token »", 4))},
    {"id": 4, "ok": True, "clock": 0.1 + 0.2, "pong": None},
    {"id": 5, "ok": True, "metrics": json_safe(
        {"families": [{"name": "x", "samples": [[{"le": "+Inf"}, float("inf")]]}]}
    )},
]


#: An id of every JSON type, with characters ``ensure_ascii`` escapes.
REQUEST_IDS = [
    None, True, False, 0, -7, 2**70, 1.5, -0.0, 1e300, "q-2",
    'é \u2028 " \\ \ud800', [], [1, "a", None], {}, {"k": [None, {"x": 2.5}]},
]
ANSWERS = [
    BoundedAnswer(Bound(-3.25, 1e300), frozenset({4, 2, 9}), 7.5),
    BoundedAnswer(Bound(2.0, 2.0)),
    BoundedAnswer(
        Bound(float("-inf"), float("inf")), frozenset({1}), degraded=True,
        unreachable_sources=('net/"cached":true', "net/3"),
    ),
]


@pytest.mark.parametrize("reply", REPLIES, ids=lambda reply: str(reply["id"]))
def test_encode_is_json_dumps_byte_for_byte(reply):
    expected = json.dumps(reply, separators=(",", ":"), allow_nan=False)
    assert encode(reply) == expected.encode("utf-8") + b"\n"
    assert decode(encode(reply)) == json.loads(expected)


@pytest.mark.parametrize("request_id", REQUEST_IDS, ids=repr)
@pytest.mark.parametrize("answer", ANSWERS, ids=("refreshed", "exact", "degraded"))
def test_executed_and_hit_replies_are_encode_byte_for_byte(answer, request_id):
    """A reply framed around an answer's payload, encoded once by the
    first reply that carried it, is what encoding the whole reply gives."""
    for first in (False, True):
        encoded = EncodedAnswer.of(encode(answer_payload(answer, first)))
        for cached in (False, True):
            reply = {
                "id": request_id,
                "ok": True,
                "result": answer_payload(answer, cached),
            }
            assert encoded.line(request_id, cached) == encode(reply)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_encode_still_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        encode({"id": 1, "ok": True, "result": {"lo": bad}})


def test_a_hit_encodes_nothing_after_its_answers_first_reply(monkeypatch):
    """Over the wire: the executed reply builds and encodes the payload;
    the hits after it reuse those bytes, framed around their own ids."""
    from repro.service import server as server_module

    calls = {"encode": 0, "answer_payload": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(server_module, "encode", counting("encode", encode))
    monkeypatch.setattr(
        server_module, "answer_payload", counting("answer_payload", answer_payload)
    )
    ids = [1, "two", [3], {"four": None}, None]

    async def go():
        service = make_service()
        async with await serve(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                lines = []
                for request_id in ids:
                    writer.write(
                        encode(
                            {
                                "id": request_id,
                                "op": "query",
                                "cache": CACHE_ID,
                                "sql": SUM_SQL,
                            }
                        )
                    )
                    await writer.drain()
                    lines.append(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
        return lines

    lines = run(go())
    replies = [json.loads(line) for line in lines]
    assert [reply["result"]["cached"] for reply in replies] == [
        False, True, True, True, True
    ]
    assert calls == {"encode": 1, "answer_payload": 1}
    for request_id, reply, line in zip(ids, replies, lines):
        assert reply["id"] == request_id
        assert line == encode(reply)
