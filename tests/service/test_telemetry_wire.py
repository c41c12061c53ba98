"""End-to-end observability: the ``metrics``/``trace`` wire ops on a
mixed fan-out workload, reconciled against the scheduler's receipts."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import QueryService, TrappClient, serve
from tests.deployments import mixed_service_system


def run(coro):
    return asyncio.run(coro)


def family(snapshot: dict, name: str) -> dict | None:
    for entry in snapshot["families"]:
        if entry["name"] == name:
            return entry
    return None


def test_mixed_workload_metrics_and_traces_reconcile():
    async def go():
        system, cost_model = mixed_service_system(n_caches=2)
        service = QueryService(system, cost_model=cost_model)
        async with await serve(service) as server:
            clients = [
                await TrappClient.connect(
                    server.host, server.port, client_id=f"c{i}"
                )
                for i in range(2)
            ]
            try:
                sqls = [
                    "SELECT SUM(traffic) WITHIN 40 FROM links",
                    "SELECT AVG(latency) WITHIN 0.2 FROM links",
                    "SELECT SUM(traffic) WITHIN 40 FROM links",
                    "SELECT SUM(load) WITHIN 30 FROM nodes",
                ]
                answers = []
                for sql in sqls:
                    answers.extend(
                        await asyncio.gather(
                            *(client.query("edge", sql) for client in clients)
                        )
                    )
                snapshot = await clients[0].metrics()
                traces = await clients[0].trace()
            finally:
                for client in clients:
                    await client.close()

        assert set(snapshot) == {"families"}
        registry = service.telemetry.registry
        served = registry.value_of("trapp_queries_total", outcome="served")
        assert served == len(answers)

        # Refresh cost per answer: the per-answer shares on the wire sum
        # to the scheduler's receipt totals, which the registry serves.
        total_cost = None
        for sample in family(snapshot, "trapp_refresh_cost_paid_total")[
            "samples"
        ]:
            total_cost = sample["value"]
        assert total_cost == pytest.approx(
            registry.value_of("trapp_refresh_cost_paid_total")
        )
        share_sum = sum(a.refresh_cost for a in answers if not a.cached)
        assert share_sum == pytest.approx(total_cost)
        # ...and per-source receipts cover the same spend.
        per_source = sum(
            s["value"]
            for s in family(snapshot, "trapp_refresh_cost_total")["samples"]
        )
        assert per_source == pytest.approx(total_cost)

        # Live bound-width histograms exist per (cache, table, column).
        widths = family(snapshot, "trapp_bound_width")
        labeled = {
            (s["labels"]["cache"], s["labels"]["table"], s["labels"]["column"])
            for s in widths["samples"]
        }
        assert ("edge/0", "links", "traffic") in labeled
        assert ("edge/1", "links", "traffic") in labeled
        for sample in widths["samples"]:
            assert sample["count"] > 0
            assert sample["buckets"][-1][0] == "+Inf"
            assert sample["buckets"][-1][1] == sample["count"]

        # Router balance: every served query landed on some replica.
        routed = family(snapshot, "trapp_routed_queries_total")
        assert sum(s["value"] for s in routed["samples"]) == served
        assert all(
            s["labels"]["mode"] == "routed" for s in routed["samples"]
        )

        # Fan-out delivery lag: sibling replicas received pushes.
        lag = family(snapshot, "trapp_fanout_delivery_lag_seconds")
        assert sum(s["count"] for s in lag["samples"]) > 0

        # Spans: executed queries walked the full step protocol, and
        # their attributed cost shares reconcile with the receipts too.
        assert traces
        executed = [
            t
            for t in traces
            if any(s["step"] == "refresh" for s in t["steps"])
        ]
        assert executed
        span_steps = {s["step"] for t in executed for s in t["steps"]}
        assert {
            "admit", "route", "plan", "coalesce", "dispatch", "refresh",
            "answer",
        } <= span_steps
        traced_share = sum(
            s["cost_share"]
            for t in traces
            for s in t["steps"]
            if s["step"] == "refresh"
        )
        assert traced_share == pytest.approx(total_cost)
        assert all(t["status"] == "ok" for t in traces)
        assert {t["client"] for t in traces} == {"c0", "c1"}

        # The wire snapshot serves the service's own registry.
        events = {
            s["labels"]["event"]: s["value"]
            for s in family(snapshot, "trapp_result_cache_events_total")[
                "samples"
            ]
        }
        assert events["hit"] == registry.value_of(
            "trapp_result_cache_events_total", event="hit"
        )
        queries = {
            s["labels"]["outcome"]: s["value"]
            for s in family(snapshot, "trapp_queries_total")["samples"]
        }
        assert queries["served"] == served

    run(go())


def test_metrics_text_and_trace_filters_over_the_wire():
    async def go():
        system, cost_model = mixed_service_system(n_caches=2)
        service = QueryService(system, cost_model=cost_model)
        async with await serve(service) as server:
            async with await TrappClient.connect(
                server.host, server.port, client_id="solo"
            ) as client:
                await client.query(
                    "edge", "SELECT SUM(traffic) WITHIN 40 FROM links"
                )
                text = await client.metrics_text()
                assert "# TYPE trapp_queries_total counter" in text
                assert 'trapp_queries_total{outcome="served"} 1' in text
                assert "trapp_bound_width_bucket" in text
                assert await client.trace(client="nobody") == []
                [span] = await client.trace(client="solo", limit=5)
                assert span["sql"].startswith("SELECT SUM")

    run(go())
