"""The benchmark's span tracer still sees every request the server answers.

``benchmarks/e2e/tracing.py`` rebinds dotted names at run time and keeps
its span parent in a ``contextvars`` variable, resetting it in a
``finally``.  A query's first step runs inside the connection's read
callback and a suspended query finishes in a task: the reset must land
in the context the set was made in, or it raises ``ValueError``.  The
tracer module is loaded read-only from its file.
"""

from __future__ import annotations

import asyncio
import importlib.util
import sys
from pathlib import Path

from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService, serve
from repro.service.protocol import decode, encode

from tests.service.conftest import CACHE_ID, build_netmon_system

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "e2e_tracing", ROOT / "benchmarks" / "e2e" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
# Its dataclasses look their module up by name.
sys.modules[_spec.name] = tracing
_spec.loader.exec_module(tracing)

SUM_SQL = "SELECT SUM(traffic) WITHIN 5 FROM links"


def test_a_hit_and_a_miss_each_get_their_spans():
    recorder = tracing.Recorder()
    loop_errors: list[dict] = []

    async def go():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        service = QueryService(
            build_netmon_system(),
            cost_model=BatchedCostModel(setup=5.0, marginal=1.0),
        )
        replies = []
        async with await serve(service) as server:
            assert recorder.install() == 0
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                for request_id in ("miss", "hit"):
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
                    replies.append(decode(await reader.readline()))
                writer.close()
                await writer.wait_closed()
            finally:
                recorder.uninstall()
        return replies

    miss, hit = asyncio.run(go())
    assert loop_errors == []
    # A reset in the wrong context would have failed the query.
    assert miss["ok"] and miss["result"]["cached"] is False
    assert hit["ok"] and hit["result"]["cached"] is True
    assert recorder.unresolved == []
    requests_of = {}
    for _sid, _parent, request, name, _start, _end in recorder.spans:
        requests_of.setdefault(name, []).append(request)
    assert requests_of["wire.decode"] == ["miss", "hit"]
    assert sorted(requests_of["service.query"]) == ["hit", "miss"]
    # The miss executed, in its continuation; the hit encoded nothing.
    assert set(requests_of["core.step1"]) == {"miss"}
    assert requests_of["wire.answer_payload"] == ["miss"]
    assert requests_of["wire.encode"] == ["miss"]
