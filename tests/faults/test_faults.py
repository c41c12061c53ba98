"""Unit tests for retry, the circuit breaker and the fault double."""

from __future__ import annotations

import pytest

from repro.errors import CacheUnavailableError
from repro.faults import CircuitBreaker, RetryPolicy
from repro.replication.cache import DataCache
from repro.replication.source import DataSource, ObjectKey
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.simulation.clock import Clock
from repro.storage.schema import Schema
from repro.storage.table import Table

from tests.faults.double import (
    CacheCrash,
    ChaosScenario,
    FanoutDrop,
    FaultInjector,
    OutageWindow,
    chaos_injector,
    chaos_schedule,
)
from tests.service.conftest import CACHE_ID, build_netmon_system


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_delays_are_deterministic_and_capped():
    policy = RetryPolicy(base_delay=0.01, max_delay=0.25, multiplier=2.0)
    delays = [policy.delay_for(r, key="links") for r in range(1, 12)]
    assert delays == [policy.delay_for(r, key="links") for r in range(1, 12)]
    # Capped: jitter is at most ±25% around max_delay.
    assert all(d <= 0.25 * 1.25 + 1e-12 for d in delays)
    assert all(d >= 0.0 for d in delays)
    # The uncapped prefix grows roughly exponentially despite jitter: each
    # doubling dwarfs the ±25% band.
    no_jitter = RetryPolicy(jitter=0.0)
    raw = [no_jitter.delay_for(r) for r in range(1, 6)]
    assert raw == [0.01, 0.02, 0.04, 0.08, 0.16]
    assert no_jitter.delay_for(6) == 0.25  # capped
    assert no_jitter.delay_for(0) == 0.0


def test_retry_jitter_depends_on_key_and_attempt():
    policy = RetryPolicy(jitter=0.25)
    assert policy.delay_for(1, key="a") != policy.delay_for(1, key="b")
    assert policy.delay_for(1, key="a") != policy.delay_for(2, key="a") / 2.0


def test_retry_exhaustion():
    policy = RetryPolicy(max_attempts=3)
    assert not policy.exhausted(1)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    assert RetryPolicy(max_attempts=1).exhausted(1)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold_and_recovers():
    clock = Clock()
    transitions: list[tuple[str, str]] = []
    breaker = CircuitBreaker(
        clock=clock.now,
        failure_threshold=2,
        cooldown=5.0,
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED  # one below threshold
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()  # still cooling down
    clock.advance(4.9)
    assert not breaker.allow()
    clock.advance(0.2)
    # Past the cooldown: the first caller is admitted as the probe ...
    assert breaker.allow()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    # ... and concurrent callers are refused while it is outstanding.
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_failed_probe_reopens_for_full_cooldown():
    clock = Clock()
    breaker = CircuitBreaker(clock=clock.now, failure_threshold=1, cooldown=2.0)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock.advance(2.0)
    assert breaker.allow()  # half-open probe
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    # The re-open restarts the cooldown from *now*.
    assert not breaker.allow()
    clock.advance(1.9)
    assert not breaker.allow()
    clock.advance(0.1)
    assert breaker.allow()


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED  # never 2 consecutive


def test_breaker_state_codes_and_validation():
    breaker = CircuitBreaker()
    assert breaker.state_code == 0
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# The fault double, acting through the objects it is installed on
# ----------------------------------------------------------------------
def refresh_all(system, cache_id: str = CACHE_ID):
    cache = system.cache(cache_id)
    table = cache.table("links")
    return cache.refresh_batched(table, table.columns.sorted_tids())


def test_outage_windows_are_half_open_intervals():
    system = build_netmon_system()
    now = system.clock.now()
    injector = FaultInjector(system.clock).add(
        OutageWindow("net", now + 10.0, now + 20.0)
    ).install(system)
    assert refresh_all(system).failures == ()
    system.clock.advance(10.0)  # start is inclusive
    receipt = refresh_all(system)
    assert receipt.failed_sources == ("net",)
    assert receipt.failures[0].error == "SourceUnavailableError"
    system.clock.advance(9.999)
    assert refresh_all(system).failed_sources == ("net",)
    system.clock.advance(0.001)  # end is exclusive
    assert refresh_all(system).failures == ()
    assert injector.events["source_outage"] == 2


def test_fail_next_is_consumed_per_contact():
    system = build_netmon_system()
    injector = FaultInjector(system.clock).fail_next("net", count=2).install(system)
    assert refresh_all(system).failed_sources == ("net",)
    assert refresh_all(system).failed_sources == ("net",)
    assert refresh_all(system).failures == ()  # budget spent: healthy
    assert injector.events["forced_failure"] == 2


def fanout_group(n_replicas: int) -> TrappSystem:
    """``n_replicas`` fan-out replicas ``edge/i`` of one table on ``net``,
    aged so every cached bound is wide."""
    master = Table("t", Schema.of(x="bounded"))
    for index in range(4):
        master.insert({"x": float(index + 1)})
    system = TrappSystem()
    system.add_source("net").add_table(master)
    system.add_group("edge")
    for index in range(n_replicas):
        system.add_cache(f"edge/{index}", shards={"t": "net"}, group="edge")
    system.clock.advance(10.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    return system


def bound_in(system, cache_id: str, tid: int):
    return system.cache(cache_id).table("t").row(tid).bound("x")


def test_fanout_drop_is_pair_scoped():
    system = fanout_group(3)
    now = system.clock.now()
    injector = FaultInjector(system.clock).add(
        FanoutDrop("net", "edge/1", now, now + 10.0)
    ).install(system)
    tid = 1
    wide = bound_in(system, "edge/1", tid)
    assert wide.width > 0
    requester = system.cache("edge/0")
    requester.refresh_batched(requester.table("t"), [tid])
    # edge/2 got the push; edge/1's push was dropped.
    assert bound_in(system, "edge/2", tid).width == 0
    assert bound_in(system, "edge/1", tid) == wide
    assert injector.events["fanout_drop"] == 1
    # Past the window the same pair delivers again.
    system.clock.advance(10.0)
    requester.refresh_batched(requester.table("t"), [tid])
    assert bound_in(system, "edge/1", tid).width == 0
    assert injector.events["fanout_drop"] == 1


def test_dropped_fanout_keeps_containment_through_value_initiated_refresh():
    """A sibling that missed a fan-out push keeps its old bound, and the
    source keeps tracking that bound: a master value escaping it reaches
    the sibling by a value-initiated refresh."""
    system = fanout_group(2)
    now = system.clock.now()
    injector = FaultInjector(system.clock).add(
        FanoutDrop("net", "edge/1", now, now + 1.0)
    ).install(system)
    tid = 2
    old = bound_in(system, "edge/1", tid)
    requester = system.cache("edge/0")
    requester.refresh_batched(requester.table("t"), [tid])
    assert bound_in(system, "edge/0", tid).width == 0
    assert bound_in(system, "edge/1", tid) == old
    assert injector.events["fanout_drop"] == 1

    source = system.source("net")
    pushed = source.value_initiated_refreshes
    truth = old.hi + 1.0
    source.apply_update(ObjectKey("t", tid, "x"), truth)
    assert source.value_initiated_refreshes > pushed
    assert not old.contains(truth)
    for cache_id in ("edge/0", "edge/1"):
        assert bound_in(system, cache_id, tid).contains(truth)


def test_cache_crash_check():
    system = build_netmon_system()
    now = system.clock.now()
    injector = FaultInjector(system.clock).add(
        CacheCrash(CACHE_ID, now + 5.0, now + 10.0)
    ).install(system)
    assert refresh_all(system).failures == ()
    system.clock.advance(5.0)
    with pytest.raises(CacheUnavailableError) as exc_info:
        refresh_all(system)
    assert exc_info.value.cache_id == CACHE_ID
    assert injector.events["cache_crash"] == 1


def test_extend_rejects_non_fault_objects():
    with pytest.raises(TypeError):
        FaultInjector(Clock()).add("not a fault")


def test_install_wraps_every_contact_source_and_cache():
    """The double replaces instance attributes only: the classes (and the
    tracing targets named after their methods) are untouched, and on a
    service the breakers time cooldowns on the injector's clock."""
    system = build_netmon_system(n_links=12)
    service = QueryService(system)
    injector = FaultInjector(system.clock).install(service)
    source = system.source("net")
    cache = system.cache(CACHE_ID)
    assert "handle_refresh_request" in vars(source)
    assert "trackers" in vars(source.monitor)
    assert "refresh_batched" in vars(cache)
    assert "handle_refresh_request" in vars(DataSource)
    assert "refresh_batched" in vars(DataCache)
    assert service.scheduler.clock == injector.now


# ----------------------------------------------------------------------
# Chaos scenario generation
# ----------------------------------------------------------------------
def test_chaos_schedule_is_deterministic_and_rate_shaped():
    scenario = ChaosScenario(
        seed=7, duration=400.0, window=20.0, outage_rate=0.25, latency_rate=0.0
    )
    sources = [f"net/{i}" for i in range(4)]
    first = chaos_schedule(sources, ["monitor"], scenario)
    second = chaos_schedule(list(reversed(sources)), ["monitor"], scenario)
    assert first == second  # order-insensitive, seed-driven
    outages = [f for f in first if isinstance(f, OutageWindow)]
    assert outages, "a 25% rate over 80 draws must produce outages"
    # 4 sources x 20 windows = 80 draws at p=0.25: expect ~20, allow slack.
    assert 8 <= len(outages) <= 36
    for window in outages:
        assert window.end - window.start == pytest.approx(20.0)


def test_chaos_injector_targets_shards_not_wrappers():
    from repro.workloads.service import sharded_service_system

    system, _ = sharded_service_system(n_shards=3, n_links=30)
    scenario = ChaosScenario(seed=3, duration=100.0, outage_rate=1.0)
    injector = chaos_injector(system, scenario)
    # Every schedule entry names a concrete shard, never the wrapper id,
    # and only the shards the cache contacts are wrapped.
    assert injector._windows
    assert all(sid.startswith("net/") for _, sid in injector._windows)
    assert "handle_refresh_request" in vars(system.source("net/0"))
    assert "handle_refresh_request" not in vars(system.source("net"))
    assert sorted(refresh_all(system).failed_sources) == ["net/0", "net/1", "net/2"]
