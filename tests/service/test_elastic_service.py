"""Elastic membership through the serving tier: drains, re-sticks, rebalance.

The :class:`QueryService` side of the ISSUE 9 membership protocol:
``detach_replica`` must drain a replica's in-flight queries through the
ledger before tearing it down and must never detach the last member,
sticky clients of a departed replica must land on survivors on their
next query (no errors at all, however many queries were in flight), and
an admitted joiner must become routable immediately — including to the
least-loaded balancer, which starts offloading onto it as load builds.
"""

from __future__ import annotations

import asyncio
import zlib

import pytest

from repro.errors import ServiceError
from repro.replication.system import TrappSystem
from repro.service import LeastLoadedRouter, QueryService
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_master(n: int = 6) -> Table:
    table = Table("t", Schema.of(x="bounded"))
    for index in range(n):
        table.insert({"x": float(index + 1)})
    return table


def build_group_system(n_caches: int = 3) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s").add_table(make_master())
    system.add_group("edge")
    for index in range(n_caches):
        system.add_cache(f"edge/{index}", shards={"t": "s"}, group="edge")
    return system


def run(coro):
    return asyncio.run(coro)


SQL = "SELECT SUM(x) WITHIN 100 FROM t"


# ----------------------------------------------------------------------
# Sticky re-stick after detach
# ----------------------------------------------------------------------
def test_sticky_clients_of_detached_replica_restick_to_survivors():
    system = build_group_system(3)
    service = QueryService(system)
    clients = [f"client-{index}" for index in range(12)]

    async def go():
        victims = []
        for client in clients:
            result = await service.query("edge", SQL, client_id=client)
            if result.cache_id == "edge/1":
                victims.append(client)
        assert victims, "no client stuck to edge/1; test needs more clients"

        await service.detach_replica("edge", "edge/1")

        # Every orphaned client re-queries: zero errors, a survivor
        # answers, and the re-stick is deterministic on repeat.
        landed = {}
        for client in victims:
            result = await service.query("edge", SQL, client_id=client)
            assert result.cache_id in {"edge/0", "edge/2"}
            landed[client] = result.cache_id
            again = await service.query("edge", SQL, client_id=client)
            assert again.cache_id == landed[client]
        # The redistribution is the router's hash over the survivors,
        # not a dogpile onto one cache-id.
        survivors = sorted({"edge/0", "edge/2"})
        for client, cache_id in landed.items():
            expected = survivors[zlib.crc32(client.encode()) % 2]
            assert cache_id == expected
        return landed

    run(go())
    assert "edge/1" not in system.group("edge").cache_ids()


def test_detach_drains_inflight_queries_first():
    """Concurrent traffic across a detach: every query answers, none
    errors, and the detach completes only after the ledger empties."""
    system = build_group_system(2)
    service = QueryService(system)
    clients = [f"c{index}" for index in range(10)]

    async def go():
        queries = [
            asyncio.create_task(service.query("edge", SQL, client_id=client))
            for client in clients
        ]
        detach = asyncio.create_task(service.detach_replica("edge", "edge/0"))
        results = await asyncio.gather(*queries)
        detached = await detach
        assert detached.cache_id == "edge/0"
        for result in results:
            assert result.answer.bound.lo <= 21.0 <= result.answer.bound.hi
        return results

    run(go())
    # The ledger holds no trace of the departed replica.
    assert service._inflight_by_cache.get("edge/0", 0) == 0
    assert "edge/0" not in service._draining
    assert system.group("edge").cache_ids() == ["edge/1"]


def test_detach_last_replica_is_refused():
    system = build_group_system(1)
    service = QueryService(system)
    with pytest.raises(ServiceError):
        run(service.detach_replica("edge", "edge/0"))
    # Still serving afterwards.
    result = run(service.query("edge", SQL, client_id="c"))
    assert result.cache_id == "edge/0"


def test_detach_unknown_member_is_refused():
    system = build_group_system(2)
    service = QueryService(system)
    with pytest.raises(Exception):
        run(service.detach_replica("edge", "edge/9"))


# ----------------------------------------------------------------------
# Admission through the service
# ----------------------------------------------------------------------
def test_admitted_joiner_is_immediately_routable():
    system = build_group_system(2)
    service = QueryService(system)

    async def go():
        receipt = service.admit_replica("edge", "edge/2")
        assert receipt.total_cost > 0
        # Pinned routing reaches it at once ...
        pinned = await service.query("edge/2", SQL, client_id="direct")
        assert pinned.cache_id == "edge/2"
        # ... and sticky group routing now hashes over three replicas.
        landed = set()
        for index in range(18):
            result = await service.query(
                "edge", SQL, client_id=f"client-{index}"
            )
            landed.add(result.cache_id)
        assert "edge/2" in landed

    run(go())
    assert system.cache("edge/2").refresh_requests_sent == 0


def test_least_loaded_rebalances_onto_the_joiner():
    """Under concurrent load the least-loaded balancer starts sending
    queries to a freshly admitted replica: in-flight counts rebalance,
    no warm-up exemption."""
    system = build_group_system(1)
    # result_ttl=-1 keeps the shared answer tier out of the way: every
    # burst query must actually route.
    service = QueryService(system, router=LeastLoadedRouter(), result_ttl=-1.0)

    async def burst(n: int) -> set[str]:
        # Tight widths force refreshes through the scheduler, so each
        # query genuinely stays in flight while its siblings route.
        system.clock.advance(5.0)
        for cache in system.group("edge"):
            cache.sync_bounds()
        results = await asyncio.gather(
            *(
                service.query(
                    "edge",
                    "SELECT SUM(x) WITHIN 0 FROM t",
                    client_id=f"c{index}",
                )
                for index in range(n)
            )
        )
        return {result.cache_id for result in results}

    async def go():
        assert await burst(6) == {"edge/0"}
        service.admit_replica("edge", "edge/1")
        spread = await burst(6)
        assert "edge/1" in spread, (
            "least-loaded never offloaded onto the admitted replica"
        )

    run(go())
