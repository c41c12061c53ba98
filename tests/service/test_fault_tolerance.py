"""Fault tolerance through the serving stack: receipts, retries,
breakers, failover, and bounded-degradation answers."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import SourceUnavailableError
from repro.extensions.batching import BatchedCostModel
from repro.faults import CacheCrash, FaultInjector, OutageWindow, RetryPolicy
from repro.service import QueryService
from repro.workloads.service import regional_cache_system

from tests.service.conftest import CACHE_ID, build_netmon_system

SUM_SQL = "SELECT SUM(traffic) WITHIN 5 FROM links"

#: No sleeping in unit tests: zero backoff, fully deterministic.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


def make_service(system=None, **kwargs) -> QueryService:
    system = system if system is not None else build_netmon_system()
    kwargs.setdefault("cost_model", BatchedCostModel(setup=5.0, marginal=1.0))
    return QueryService(system, **kwargs)


def run(coro):
    return asyncio.run(coro)


def master_sum(system, column: str = "traffic") -> float:
    total = 0.0
    for row in system.source("net").table("links").rows():
        total += row.number(column)
    return total


def outage_forever(system, source_id: str = "net") -> FaultInjector:
    injector = FaultInjector(system.clock)
    injector.add_outage(OutageWindow(source_id, 0.0, float("inf")))
    return injector


# ----------------------------------------------------------------------
# Cache layer: failure receipts instead of raises
# ----------------------------------------------------------------------
def test_refresh_batched_surfaces_failure_receipts():
    system = build_netmon_system()
    injector = outage_forever(system).attach(system)
    cache = system.cache(CACHE_ID)
    table = cache.table("links")
    tids = {row.tid for row in table.rows()}

    receipt = cache.refresh_batched(table, tids)
    assert receipt.per_source == ()
    assert receipt.failed_sources == ("net",)
    assert receipt.failed_tids == frozenset(tids)
    assert receipt.tids == frozenset()
    assert receipt.failures[0].error == "SourceUnavailableError"
    assert injector.events["source_outage"] == 1


def test_serial_refresh_raises_without_a_scheduler():
    """The classic serial path has nobody to degrade for it — it raises."""
    system = build_netmon_system()
    outage_forever(system).attach(system)
    cache = system.cache(CACHE_ID)
    table = cache.table("links")
    tid = next(iter(table.rows())).tid
    with pytest.raises(SourceUnavailableError):
        cache.refresh(table, [tid])


# ----------------------------------------------------------------------
# Scheduler: retry with backoff, then success
# ----------------------------------------------------------------------
def test_transient_failure_is_retried_then_succeeds():
    system = build_netmon_system()
    injector = FaultInjector(system.clock).fail_next("net", count=1)
    service = make_service(
        system, fault_injector=injector, retry_policy=FAST_RETRY
    )

    result = run(service.query(CACHE_ID, SUM_SQL))
    assert result.answer.meets(5)
    assert not result.answer.degraded
    faults = service.scheduler.fault_counts()
    assert faults["source_failure"] == 1
    assert faults["retry"] == 1
    assert faults["degraded_plan"] == 0
    # One failure is below the breaker threshold; the retry's success
    # reset the count.
    assert service.scheduler.breaker_states() == {"net": "closed"}
    assert service.stats()["degraded_answers"] == 0


# ----------------------------------------------------------------------
# Degraded-mode serving (tentpole acceptance)
# ----------------------------------------------------------------------
def test_exhausted_retries_degrade_with_containment():
    system = build_netmon_system()
    truth = master_sum(system)
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=FAST_RETRY,
    )

    result = run(service.query(CACHE_ID, SUM_SQL))
    answer = result.answer
    assert answer.degraded
    assert answer.unreachable_sources == ("net",)
    assert not answer.meets(5)  # precision was sacrificed ...
    assert answer.bound.lo <= truth <= answer.bound.hi  # ... correctness not
    assert service.stats()["degraded_answers"] == 1
    faults = service.scheduler.fault_counts()
    assert faults["degraded_plan"] == 1
    assert faults["source_failure"] >= 1


def test_degraded_answers_are_cache_scoped_and_flagged():
    """Satellite 2: the degraded tier never feeds the shared tier."""
    system = build_netmon_system()
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=FAST_RETRY,
        result_ttl=100.0,
    )

    async def go():
        first = await service.query(CACHE_ID, SUM_SQL, client_id="c1")
        assert first.answer.degraded and not first.cached
        # The repeat is served from the degraded tier without touching
        # the dead source again.
        second = await service.query(CACHE_ID, SUM_SQL, client_id="c2")
        assert second.cached
        assert second.answer is first.answer

    run(go())
    # Every stored entry for this answer is keyed under the serving
    # *cache* with the "degraded" marker in the key extra — no entry
    # exists under a bare (shareable) extra.
    keys = list(service.results._entries)
    assert len(keys) == 1
    scope, *_rest, extra = keys[0]
    assert scope == CACHE_ID
    assert extra[-1] == "degraded"


def test_within_zero_from_dead_source_is_an_error():
    """Only a constraint that *requires* exact values may fail outright."""
    system = build_netmon_system()
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=FAST_RETRY,
    )
    with pytest.raises(SourceUnavailableError):
        run(service.query(CACHE_ID, "SELECT SUM(traffic) WITHIN 0 FROM links"))


# ----------------------------------------------------------------------
# Circuit breaker through the scheduler
# ----------------------------------------------------------------------
def test_breaker_opens_and_skips_the_dead_source():
    system = build_netmon_system()
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=RetryPolicy(max_attempts=1),
        breaker_threshold=1,
        breaker_cooldown=1000.0,
    )

    async def go():
        first = await service.query(CACHE_ID, SUM_SQL, client_id="c1")
        assert first.answer.degraded
        assert service.scheduler.breaker_states() == {"net": "open"}
        # A different query (distinct width → distinct plan) degrades
        # immediately off the open breaker — zero further contacts.
        contacts_before = service.scheduler.fault_counts()["source_failure"]
        second = await service.query(
            CACHE_ID, "SELECT SUM(traffic) WITHIN 6 FROM links", client_id="c2"
        )
        assert second.answer.degraded
        assert (
            service.scheduler.fault_counts()["source_failure"]
            == contacts_before
        )
        assert service.scheduler.fault_counts()["breaker_skip"] >= 1

    run(go())


def test_breaker_half_open_probe_recovers_after_outage_ends():
    system = build_netmon_system()
    injector = FaultInjector(system.clock)
    now = system.clock.now()
    injector.add_outage(OutageWindow("net", now, now + 50.0))
    service = make_service(
        system,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=1),
        breaker_threshold=1,
        breaker_cooldown=10.0,
        result_ttl=0.0,
    )

    async def go():
        first = await service.query(CACHE_ID, SUM_SQL, client_id="c1")
        assert first.answer.degraded
        assert service.scheduler.breaker_states() == {"net": "open"}
        # Outage over, cooldown elapsed: the next dispatch is admitted as
        # the half-open probe, succeeds, and closes the circuit.
        system.clock.advance(60.0)
        second = await service.query(CACHE_ID, SUM_SQL, client_id="c2")
        assert not second.answer.degraded
        assert second.answer.meets(5)
        assert service.scheduler.breaker_states() == {"net": "closed"}
        faults = service.scheduler.fault_counts()
        assert faults["breaker_half_open"] == 1
        assert faults["breaker_closed"] == 1

    run(go())


# ----------------------------------------------------------------------
# Leader failover across a cache group
# ----------------------------------------------------------------------
def test_crashed_leader_fails_over_to_sibling_replica():
    system, model = regional_cache_system(n_caches=2, n_shards=2, n_links=60)
    injector = FaultInjector(system.clock)
    injector.add_crash(CacheCrash("edge/0", 0.0, float("inf")))
    injector.attach(system)
    service = QueryService(
        system,
        cost_model=model,
        fault_injector=injector,
        retry_policy=FAST_RETRY,
    )
    total_width = sum(
        row.bound("traffic").width
        for row in system.cache("edge/1").table("links").rows()
    )
    sql = f"SELECT SUM(traffic) WITHIN {total_width * 0.5:.6f} FROM links"

    result = run(service.query("edge", sql, client_id="c1"))
    assert not result.answer.degraded
    assert result.answer.meets(total_width * 0.5)
    faults = service.scheduler.fault_counts()
    # edge/0 is the cheaper leader for one of the two shards; its crash
    # forced at least one batch over to edge/1.
    assert faults["failover_dispatch"] >= 1
    assert faults["failover_exhausted"] == 0
    assert faults["degraded_plan"] == 0


def test_all_replicas_crashed_degrades_not_hangs():
    system, model = regional_cache_system(n_caches=2, n_shards=2, n_links=60)
    injector = FaultInjector(system.clock)
    injector.add_crash(CacheCrash("edge/0", 0.0, float("inf")))
    injector.add_crash(CacheCrash("edge/1", 0.0, float("inf")))
    injector.attach(system)
    service = QueryService(
        system,
        cost_model=model,
        fault_injector=injector,
        retry_policy=FAST_RETRY,
    )
    truth = sum(
        row.number("traffic")
        for row in system.source("net/0").table("links").rows()
    ) + sum(
        row.number("traffic")
        for row in system.source("net/1").table("links").rows()
    )
    total_width = sum(
        row.bound("traffic").width
        for row in system.cache("edge/0").table("links").rows()
    )
    sql = f"SELECT SUM(traffic) WITHIN {total_width * 0.5:.6f} FROM links"

    result = run(service.query("edge", sql, client_id="c1"))
    assert result.answer.degraded
    assert result.answer.bound.lo <= truth <= result.answer.bound.hi
    assert service.scheduler.fault_counts()["failover_exhausted"] >= 1


# ----------------------------------------------------------------------
# A degraded round is terminal, even when a sync widened it
# ----------------------------------------------------------------------
def outage_with_widening_sync(system, service, then=None):
    """Suspend a SUM query at its refresh against a dead source, then
    advance the clock and run another query, whose execution syncs the
    cache's bounds wider under the suspended one.  Returns the suspended
    query's result, and ``then``'s when given (run after it)."""

    async def go():
        slow = asyncio.create_task(service.query(CACHE_ID, SUM_SQL, client_id="slow"))
        await asyncio.sleep(0.01)
        system.clock.advance(60.0)
        await service.query(
            CACHE_ID,
            "SELECT SUM(traffic) WITHIN 100000 FROM links",
            client_id="fast",
            cost=lambda row: 1.0,  # unshareable: forces execution
        )
        first = await slow
        return first, (await then() if then is not None else None)

    return run(go())


def test_stale_retry_hitting_failure_degrades_instead_of_looping():
    """The recheck misses R twice over — tuples unreached *and* bounds
    widened by another query's sync — and answers degraded at once: a
    round with unreached tuples never plans again."""
    system = build_netmon_system()
    truth = master_sum(system)
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=FAST_RETRY,
        network_delay=0.05,
    )

    answer = outage_with_widening_sync(system, service)[0].answer
    assert answer.degraded
    assert answer.unreachable_sources == ("net",)
    assert answer.bound.lo <= truth <= answer.bound.hi
    registry = service.telemetry.registry
    rounds = registry.histogram("trapp_plan_rounds", labelnames=("class",))
    assert rounds.labels(**{"class": "aggregate"}).total == 1
    assert registry.value_of("trapp_service_events_total", event="replan") == 0
    assert service.stats()["degraded_answers"] == 1


def test_revalidate_passes_degraded_answers_through():
    """A degraded answer suspended across a widening sync is terminal: it
    reaches the client as recomputed over the widened bounds — wider
    than its own initial bound, and still containing the truth — and
    lands in the degraded tier, from which a repeat is served."""
    system = build_netmon_system()
    truth = master_sum(system)
    service = make_service(
        system,
        fault_injector=outage_forever(system),
        retry_policy=FAST_RETRY,
        network_delay=0.05,
        result_ttl=100.0,
    )

    first, repeat = outage_with_widening_sync(
        system,
        service,
        then=lambda: service.query(CACHE_ID, SUM_SQL, client_id="again"),
    )
    answer = first.answer
    assert answer.degraded and not first.cached
    assert not answer.refreshed
    assert answer.width > answer.initial_bound.width  # the sync widened it
    assert answer.bound.lo <= truth <= answer.bound.hi
    assert repeat.cached and repeat.answer is answer
    assert service.stats()["degraded_answers"] == 1


# ----------------------------------------------------------------------
# Zero-fault equivalence (tentpole acceptance)
# ----------------------------------------------------------------------
def test_zero_fault_run_is_bit_identical_with_fault_machinery_on():
    sqls = [
        SUM_SQL,
        "SELECT AVG(traffic) WITHIN 0.5 FROM links",
        "SELECT MIN(latency) WITHIN 0.2 FROM links",
        "SELECT SUM(bandwidth) WITHIN 2 FROM links",
    ]

    def run_variant(armed: bool):
        system = build_netmon_system()
        kwargs = {}
        if armed:
            kwargs = dict(
                # An attached injector with an *empty* schedule plus the
                # full retry/breaker machinery switched on.
                fault_injector=FaultInjector(system.clock),
                retry_policy=RetryPolicy(),
                breaker_threshold=1,
            )
        service = make_service(system, **kwargs)

        async def go():
            return [
                (await service.query(CACHE_ID, sql, client_id="c1")).answer
                for sql in sqls
            ]

        answers = run(go())
        return answers, service.stats()

    plain_answers, plain_stats = run_variant(armed=False)
    armed_answers, armed_stats = run_variant(armed=True)
    for plain, armed in zip(plain_answers, armed_answers):
        assert armed.bound == plain.bound
        assert armed.refreshed == plain.refreshed
        assert armed.refresh_cost == plain.refresh_cost
        assert not armed.degraded
        assert armed.unreachable_sources == ()
    # The serving counters agree exactly; the fault plane never fired.
    assert armed_stats["scheduler"] == plain_stats["scheduler"]
    assert armed_stats["result_cache"] == plain_stats["result_cache"]
    assert all(count == 0 for count in plain_stats["faults"].values() if isinstance(count, int))
    assert armed_stats["faults"] == plain_stats["faults"]
