"""A fault double: seeded source outages, fan-out drops and cache crashes.

The double acts on the objects of the deployment under test, so the
scheduler's retry, circuit breaker and ``RefreshFailure`` receipts meet
an injected fault on the path a real one takes.
:meth:`FaultInjector.install` replaces three instance attributes:

* each contact-level source's ``handle_refresh_request`` raises
  :class:`SourceUnavailableError` before delegating, inside an outage
  window or for a :meth:`~FaultInjector.fail_next` budget.
  ``DataCache.refresh_batched`` calls it inside the ``try`` that turns a
  refused contact into a receipt, and a replica admitted later contacts
  the same source object, so it meets the same outage;
* the same source's ``monitor.renew`` leaves a cache out of the fan-out
  membership inside a :class:`FanoutDrop` window.  The membership is
  read before a sibling's policy advances and before its tracker is
  renewed, so the drop leaves both as they were: the source keeps
  tracking the bound the sibling still holds, and a master value
  escaping it still reaches the sibling by a value-initiated refresh;
* each cache's ``refresh_batched`` raises :class:`CacheUnavailableError`
  inside a :class:`CacheCrash` window, so the scheduler fails its batch
  over to a sibling replica.

Windows are half-open intervals ``[start, end)`` of the injector's
clock, so a seeded schedule replays bit-identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.errors import CacheUnavailableError, SourceUnavailableError
from repro.replication.source import DataSource


class OutageWindow(NamedTuple):
    """``source_id`` refuses refresh requests in-window."""

    source_id: str
    start: float
    end: float


class _Excluding:
    """A fan-out membership with some caches left out."""

    def __init__(self, membership, left_out: set[str]) -> None:
        self.membership, self.left_out = membership, left_out

    def __contains__(self, cache_id: str) -> bool:
        return cache_id not in self.left_out and (
            self.membership is True or cache_id in self.membership
        )


class FanoutDrop(NamedTuple):
    """``source_id`` → ``cache_id`` fan-out pushes are lost in-window."""

    source_id: str
    cache_id: str
    start: float
    end: float


class CacheCrash(NamedTuple):
    """``cache_id`` cannot dispatch refreshes in-window."""

    cache_id: str
    start: float
    end: float


class FaultInjector:
    """A clock-driven fault schedule, installed on a deployment.

    ``clock`` is a :class:`~repro.simulation.Clock` (anything with a
    ``now()``) or a bare ``() -> float`` callable.  ``events`` counts what
    was actually injected.
    """

    def __init__(self, clock: Callable[[], float] | object) -> None:
        self.now: Callable[[], float] = getattr(clock, "now", clock)
        #: Windows by (kind, component ids): the fields before the times.
        self._windows: dict[tuple, list] = {}
        self._fail_next: dict[str, int] = {}
        self.events = dict.fromkeys(
            ("source_outage", "fanout_drop", "cache_crash", "forced_failure"), 0
        )

    def add(self, *faults: OutageWindow | FanoutDrop | CacheCrash) -> "FaultInjector":
        """Schedule fault windows; returns ``self`` for chaining."""
        for fault in faults:
            if not isinstance(fault, (OutageWindow, FanoutDrop, CacheCrash)):
                raise TypeError(f"not a fault window: {fault!r}")
            self._windows.setdefault((type(fault), *fault[:-2]), []).append(fault)
        return self

    def fail_next(self, source_id: str, count: int = 1) -> "FaultInjector":
        """Refuse the next ``count`` contacts to ``source_id``, whatever
        the clock reads — the deterministic way to test a retry that then
        succeeds."""
        self._fail_next[source_id] = self._fail_next.get(source_id, 0) + count
        return self

    def _active(self, *key) -> bool:
        now = self.now()
        return any(w.start <= now < w.end for w in self._windows.get(key, ()))

    # ------------------------------------------------------------------
    def install(self, target) -> "FaultInjector":
        """Put the schedule into ``target``: a system, or a service.

        Every contact-level source and every cache of the system gets its
        wrappers.  On a service, the scheduler's breakers also time their
        cooldowns on this injector's clock, so a replayed schedule opens
        and closes them at the same simulated instants.
        """
        system = getattr(target, "system", target)
        for source in system._sources.values():
            if isinstance(source, DataSource):
                self._wrap_source(source)
        for cache in system._caches.values():
            self._wrap_cache(cache)
        if system is not target:
            target.scheduler.clock = self.now
        return self

    def _wrap_source(self, source: DataSource) -> None:
        source_id = source.source_id
        handle = source.handle_refresh_request
        renew = source.monitor.renew

        def handle_refresh_request(request):
            budget = self._fail_next.get(source_id, 0)
            if budget > 0:
                self._fail_next[source_id] = budget - 1
                self.events["forced_failure"] += 1
                raise SourceUnavailableError(
                    f"injected transient failure contacting source {source_id!r}",
                    sources=(source_id,),
                )
            if self._active(OutageWindow, source_id):
                self.events["source_outage"] += 1
                raise SourceUnavailableError(
                    f"source {source_id!r} is in an outage window",
                    sources=(source_id,),
                )
            return handle(request)

        def renew_dropping(
            cache_id, table, column, tids, held, values, now, shape, fanout
        ):
            dropped = {
                member
                for trackers in held
                for member in trackers
                if member != cache_id and self._active(FanoutDrop, source_id, member)
            } if fanout else set()
            if dropped:
                # One event per (object, dropped sibling) pair.
                self.events["fanout_drop"] += sum(
                    member in trackers for trackers in held for member in dropped
                )
                fanout = _Excluding(fanout, dropped)
            return renew(
                cache_id, table, column, tids, held, values, now, shape, fanout
            )

        source.handle_refresh_request = handle_refresh_request
        source.monitor.renew = renew_dropping

    def _wrap_cache(self, cache) -> None:
        cache_id = cache.cache_id
        refresh_batched = cache.refresh_batched

        def refresh_batched_or_crash(*args, **kwargs):
            if self._active(CacheCrash, cache_id):
                self.events["cache_crash"] += 1
                raise CacheUnavailableError(
                    f"cache {cache_id!r} is crashed", cache_id=cache_id
                )
            return refresh_batched(*args, **kwargs)

        cache.refresh_batched = refresh_batched_or_crash


def outage_forever(target, source_id: str) -> FaultInjector:
    """``source_id`` of ``target`` (a system or a service) down for good."""
    system = getattr(target, "system", target)
    injector = FaultInjector(system.clock)
    return injector.add(OutageWindow(source_id, 0.0, math.inf)).install(target)


# ----------------------------------------------------------------------
# Seeded chaos schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """Target fault rates for one seeded chaos run.

    Rates are *per (component, window)* probabilities: ``outage_rate=0.2``
    with a 20 s window means each source is down for ~20 % of the run's
    windows, independently.
    """

    seed: int = 17
    #: Schedule horizon, in clock seconds from ``start``.
    start: float = 0.0
    duration: float = 600.0
    #: Width of one fault window; every fault lasts exactly one window.
    window: float = 20.0
    #: P(source refuses contacts) per (source, window).
    outage_rate: float = 0.2
    #: P(slow source) per (source, window).  No fault acts on latency;
    #: the draws stay so a seed places its outage windows where it
    #: always has.
    latency_rate: float = 0.1
    #: P(fan-out push lost) per (source, cache, window).
    drop_rate: float = 0.0
    #: P(cache crashed) per (cache, window).
    crash_rate: float = 0.0


def chaos_schedule(
    source_ids: "list[str] | tuple[str, ...]",
    cache_ids: "list[str] | tuple[str, ...]",
    scenario: ChaosScenario,
) -> list[OutageWindow | FanoutDrop | CacheCrash]:
    """The scenario expanded into concrete fault windows (pure function).

    Components are visited in sorted order and all draws come from one
    ``random.Random(scenario.seed)`` stream, so the schedule depends only
    on ``(scenario, sorted ids)`` — never on dict order or wall clock.
    """
    rng = random.Random(scenario.seed)
    sources = sorted(source_ids)
    caches = sorted(cache_ids)
    faults: list[OutageWindow | FanoutDrop | CacheCrash] = []
    edge = scenario.start + scenario.duration
    start = scenario.start
    while start < edge:
        end = min(start + scenario.window, edge)
        for source_id in sources:
            if rng.random() < scenario.outage_rate:
                faults.append(OutageWindow(source_id, start, end))
            if rng.random() < scenario.latency_rate:
                rng.random()  # the slow source's delay
            for cache_id in caches:
                if rng.random() < scenario.drop_rate:
                    faults.append(FanoutDrop(source_id, cache_id, start, end))
        for cache_id in caches:
            if rng.random() < scenario.crash_rate:
                faults.append(CacheCrash(cache_id, start, end))
        start = end
    return faults


def chaos_injector(target, scenario: ChaosScenario) -> FaultInjector:
    """A :class:`FaultInjector` loaded with the scenario, installed on
    ``target`` (a system, or a service).

    The schedule names the system's contact-level sources (the shard
    sources a cache sends refresh requests to, not sharded-namespace
    wrappers) and every cache.
    """
    system = getattr(target, "system", target)
    source_ids = [
        source_id
        for source_id, source in system._sources.items()
        if isinstance(source, DataSource)
    ]
    schedule = chaos_schedule(source_ids, list(system._caches), scenario)
    return FaultInjector(system.clock).add(*schedule).install(target)
