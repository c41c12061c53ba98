"""Property: the statement cache and the scoped sync change no answer.

Twin deployments — the same seeded two-replica group over ``links`` and
``nodes`` — replay one seeded schedule of statements of all four classes
(plain aggregates with and without predicates over bounded columns,
GROUP BY, TOP-N and MEDIAN, both join routes; pool repeats beside
private statements; routed and pinned), master writes and clock steps.
One twin is the served :class:`~repro.service.QueryService`: each
repeated text is parsed, compiled and keyed once, and an execution syncs
only the columns its plan reads.  The other is the per-request oracle
(``tests/oracle/per_request_service.py``): parse, compile and a sync of
every cached column on every request.  After every operation the twins
must agree bit for bit on the answer, on every refresh plan submitted to
the scheduler, on the refresh cost and on every counter — except the
statement cache's own and the sync's cell tallies, which count what the
cache saves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.replication.messages import ObjectKey
from repro.service import QueryService
from tests.deployments import mixed_service_system
from tests.oracle.per_request_service import PerRequestQueryService

#: Counter families that differ by design between the twins.
UNCOMPARED = {"trapp_statement_cache_events_total", "trapp_bound_sync_cells_total"}
OPERATIONS = 60


def fingerprint(value):
    """A bit-exact, order-free image of an answer."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(item) for item in value)
    return value


def counters(service: QueryService) -> dict:
    return {
        (family["name"], tuple(sorted(sample["labels"].items()))): sample["value"]
        for family in service.telemetry.registry.snapshot()["families"]
        if family["type"] == "counter" and family["name"] not in UNCOMPARED
        for sample in family["samples"]
    }


def record_plans(service: QueryService) -> list:
    """Log every refresh plan the service submits to its scheduler."""
    plans = []
    submit = service.scheduler.submit

    async def recording(cache, request, trace=None):
        plans.append(
            (cache.cache_id, request.table.name,
             tuple(sorted(request.plan.tids)), request.replan)
        )
        return await submit(cache, request, trace=trace)

    service.scheduler.submit = recording
    return plans


def statements(system, rng: random.Random):
    """A statement generator over the deployment's current widths."""
    cache = system.cache("edge/0")
    links, nodes = cache.table("links"), cache.table("nodes")

    def total(table, column):
        lo, hi = table.columns.endpoints(column)
        return float((hi - lo).sum())

    traffic, latency = total(links, "traffic"), total(links, "latency")
    load = total(nodes, "load")

    def one() -> str:
        frac = round(rng.uniform(0.2, 0.8), 3)
        cut = round(rng.uniform(20.0, 120.0), 1)
        shape = rng.randrange(9)
        if shape == 0:
            agg = rng.choice(("SUM", "AVG"))
            scale = 1.0 if agg == "SUM" else 1e-2
            return f"SELECT {agg}(traffic) WITHIN {frac * traffic * scale:.4f} FROM links"
        if shape == 1:
            return (
                f"SELECT SUM(traffic) WITHIN {frac * traffic:.4f} FROM links "
                f"WHERE latency < {cut}"
            )
        if shape == 2:
            return (
                f"SELECT COUNT(*) WITHIN {round(frac * 40)} FROM links "
                f"WHERE bandwidth > {cut}"
            )
        if shape == 3:
            return f"SELECT MAX(latency) WITHIN {frac * 5:.4f} FROM links"
        if shape == 4:
            return (
                f"SELECT SUM(traffic) WITHIN {frac * traffic / 4:.4f} "
                "FROM links GROUP BY from_node"
            )
        if shape == 5:
            return f"SELECT TOPN(3, traffic) WITHIN {frac * 20:.4f} FROM links"
        if shape == 6:
            return f"SELECT MEDIAN(latency) WITHIN {frac * latency / 10:.4f} FROM links"
        if shape == 7:
            return (
                f"SELECT SUM(load) WITHIN {frac * load * 3:.4f} "
                "FROM links, nodes WHERE to_node = node"
            )
        return (
            f"SELECT COUNT(*) WITHIN {round(frac * 30)} FROM links, nodes "
            f"WHERE to_node = node AND load > {round(cut / 2)}"
        )

    return one


def schedule(seed: int, system) -> list[tuple]:
    rng = random.Random(seed)
    one = statements(system, rng)
    pool = [one() for _ in range(6)]
    master = system.source("net")
    links = master.table("links").columns.sorted_tids().tolist()
    nodes = master.table("nodes").columns.sorted_tids().tolist()
    ops: list[tuple] = []
    for _ in range(OPERATIONS):
        roll = rng.random()
        if roll < 0.6:
            sql = rng.choice(pool) if rng.random() < 0.7 else one()
            target = rng.choice(("edge", "edge", "edge/0", "edge/1"))
            ops.append(("query", target, sql, f"client-{rng.randrange(4)}"))
        elif roll < 0.85:
            if rng.random() < 0.75:
                key = ObjectKey(
                    "links", rng.choice(links),
                    rng.choice(("latency", "bandwidth", "traffic")),
                )
            else:
                key = ObjectKey("nodes", rng.choice(nodes), "load")
            ops.append(("write", key, rng.uniform(-3.0, 3.0)))
        else:
            ops.append(("advance", rng.uniform(0.1, 4.0)))
    return ops


async def apply(service: QueryService, op: tuple):
    system = service.system
    if op[0] == "query":
        _, target, sql, client = op
        try:
            result = await service.query(target, sql, client_id=client)
        except Exception as exc:  # the same typed error on both twins
            return ("error", type(exc).__name__, str(exc))
        return (result.cached, result.cache_id, fingerprint(result.answer))
    if op[0] == "write":
        _, key, step = op
        master = system.source("net")
        value = master.table(key.table).row(key.tid).number(key.column)
        master.apply_update(key, max(0.0, value + step))
        return None
    system.clock.advance(op[1])
    return None


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_statement_cache_and_scoped_sync_match_the_per_request_path(seed):
    served_system, model = mixed_service_system(n_links=90, seed=seed % 7 + 1)
    oracle_system, _ = mixed_service_system(n_links=90, seed=seed % 7 + 1)
    ops = schedule(seed, served_system)

    async def replay():
        served = QueryService(served_system, cost_model=model)
        oracle = PerRequestQueryService(oracle_system, cost_model=model)
        served_plans, oracle_plans = record_plans(served), record_plans(oracle)
        for step, op in enumerate(ops):
            got = await apply(served, op)
            want = await apply(oracle, op)
            assert got == want, (step, op)
            assert served_plans == oracle_plans, (step, op)
            assert counters(served) == counters(oracle), (step, op)
        hits = served.telemetry.registry.value_of(
            "trapp_statement_cache_events_total", event="hit"
        )
        return hits, served_plans

    hits, plans = asyncio.run(replay())
    assert hits > 0, "the schedule never served a cached plan"
    assert plans, "the schedule never refreshed"
