"""Membership changes under fault injection: elastic × chaos interaction.

The ISSUE 9 chaos satellites: detaching a replica in the middle of a
source outage must not cost availability or containment, admitting a
joiner while the source's circuit breaker is open must succeed — the
snapshot is cache-to-cache and never contacts the dead source — and the
degraded result tier (cache-scoped by construction) must never leak
through a snapshot transfer into a joiner.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServiceError
from repro.extensions.batching import BatchedCostModel
from repro.faults import FaultInjector, OutageWindow, RetryPolicy
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.storage.schema import Schema
from repro.storage.table import Table

from tests.oracle.percell_sync import table_width_per_key
from tests.service.conftest import degraded_answers, fault_events

#: No sleeping in unit tests: zero backoff, fully deterministic.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

SQL = "SELECT SUM(x) WITHIN 0.5 FROM t"
TRUTH = 21.0  # sum of x over the master rows below


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


def make_service(system, **kwargs) -> QueryService:
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    kwargs.setdefault("retry_policy", FAST_RETRY)
    return QueryService(system, **kwargs)


def outage_forever(system, source_id: str = "s") -> FaultInjector:
    injector = FaultInjector(system.clock)
    injector.add_outage(OutageWindow(source_id, 0.0, float("inf")))
    return injector.attach(system)


def widen(system) -> None:
    """Age the bounds so the SQL above genuinely needs a refresh."""
    system.clock.advance(10.0)
    for cache in system.group("edge"):
        cache.sync_bounds()


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Detach in the middle of an outage
# ----------------------------------------------------------------------
def test_detach_mid_outage_preserves_availability_and_containment():
    system = build_group_system(3)
    injector = outage_forever(system)
    service = make_service(system, fault_injector=injector)
    widen(system)
    clients = [f"client-{index}" for index in range(9)]

    async def sweep():
        """Every client queries; every answer (degraded or not) contains
        the truth — zero errors, zero containment violations."""
        for client in clients:
            result = await service.query("edge", SQL, client_id=client)
            answer = result.answer
            assert answer.degraded
            assert answer.bound.lo <= TRUTH <= answer.bound.hi

    async def go():
        await sweep()
        # Membership change mid-outage: drain and drop a replica while
        # the source is dead and its clients hold degraded answers.
        await service.detach_replica("edge", "edge/1")
        assert system.group("edge").cache_ids() == ["edge/0", "edge/2"]
        await sweep()

    run(go())
    assert degraded_answers(service) > 0
    # The drain left no ghost ledger entries for the departed replica.
    assert service._inflight_by_cache.get("edge/1", 0) == 0


# ----------------------------------------------------------------------
# Admission while the source breaker is open
# ----------------------------------------------------------------------
def test_admit_while_breaker_open_never_contacts_the_dead_source():
    system = build_group_system(2)
    injector = outage_forever(system)
    service = make_service(
        system,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=1),
        breaker_threshold=1,
        breaker_cooldown=1000.0,
        result_ttl=100.0,
    )
    widen(system)

    async def go():
        # Trip the breaker: one degraded answer, circuit open.
        first = await service.query("edge", SQL, client_id="c1")
        assert first.answer.degraded
        assert service.scheduler.breaker_states() == {"s": "open"}
        contacts_before = fault_events(service.scheduler, "source_failure")

        # Snapshot admission is replica-to-replica: it must succeed with
        # the source dead and the breaker open, without a single contact.
        receipt = service.admit_replica("edge", "edge/2")
        assert receipt.total_cost > 0
        assert receipt.failures == ()
        assert (
            fault_events(service.scheduler, "source_failure")
            == contacts_before
        )
        assert service.scheduler.breaker_states() == {"s": "open"}

        # The joiner shares the fault plane (elastic attach) and serves
        # degraded like its siblings — containment intact.
        assert system.cache("edge/2").fault_injector is injector
        mine = await service.query("edge/2", SQL, client_id="c2")
        assert mine.answer.degraded
        assert mine.answer.bound.lo <= TRUTH <= mine.answer.bound.hi

    run(go())


def test_degraded_answers_never_leak_into_snapshot_transfer():
    """The degraded tier is cache-scoped result state; a snapshot
    transfer carries tables, bound functions, and policy state — never
    served answers.  A joiner admitted from a donor that has been
    serving degraded answers starts with a clean slate."""
    system = build_group_system(2)
    outage_forever(system)
    service = make_service(system, result_ttl=100.0)
    widen(system)

    async def go():
        # Both members serve degraded answers into the result tier.
        for client, target in (("c0", "edge/0"), ("c1", "edge/1")):
            result = await service.query(target, SQL, client_id=client)
            assert result.answer.degraded
        degraded_scopes = {
            key[0]
            for key in service.results._entries
            if key[-1][-1] == "degraded"
        }
        assert degraded_scopes == {"edge/0", "edge/1"}

        _receipt = service.admit_replica("edge", "edge/2")

        # No result-tier entry of any kind is scoped to the joiner, and
        # its adopted bound state matches the donor's exactly — the
        # transfer moved replication state, not answers.
        assert all(key[0] != "edge/2" for key in service.results._entries)
        now = system.clock.now()
        assert table_width_per_key(
            system.cache("edge/2"), "t", now
        ) == table_width_per_key(system.cache("edge/0"), "t", now)
        # Its first answer is computed fresh, not inherited.
        mine = await service.query("edge/2", SQL, client_id="c2")
        assert not mine.cached

    run(go())


def test_detach_last_replica_refused_even_during_outage():
    """Bounded degradation beats an empty group: the availability floor
    holds under chaos too."""
    system = build_group_system(1)
    outage_forever(system)
    service = make_service(system)
    with pytest.raises(ServiceError):
        run(service.detach_replica("edge", "edge/0"))
