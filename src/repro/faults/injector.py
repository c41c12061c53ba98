"""Deterministic, clock-scheduled fault injection.

A :class:`FaultInjector` holds a *schedule* of fault windows — source
outages, per-source latency spikes, fan-out message drops, and cache
crash/restart windows — all expressed in simulation-clock seconds, so a
seeded chaos run replays bit-identically.  The injector itself is pure
mechanism: it answers "is X available at now()?"; scenario *generation*
(seeded schedules at a target outage rate) lives in
:mod:`repro.workloads.chaos`.

Attachment is non-invasive: :meth:`attach` sets the ``fault_injector``
attribute on every cache and source of a
:class:`~repro.replication.system.TrappSystem`.  Components consult it
only when present, so zero-fault runs with no injector attached execute
exactly the pre-fault code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import CacheUnavailableError, SourceUnavailableError

__all__ = [
    "CacheCrash",
    "FanoutDrop",
    "FaultInjector",
    "LatencySpike",
    "OutageWindow",
]


@dataclass(frozen=True, slots=True)
class OutageWindow:
    """``source_id`` refuses refresh requests for ``start <= now < end``."""

    source_id: str
    start: float
    end: float

    def covers(self, now: float) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end


@dataclass(frozen=True, slots=True)
class LatencySpike:
    """Contacts to ``source_id`` take ``delay`` extra seconds in-window.

    The delay is *recorded* on the refresh receipt (and observed into the
    latency histogram) rather than slept, keeping runs deterministic.
    """

    source_id: str
    start: float
    end: float
    delay: float

    def covers(self, now: float) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end


@dataclass(frozen=True, slots=True)
class FanoutDrop:
    """``source_id`` → ``cache_id`` fan-out pushes are lost in-window.

    Drops are applied *before* the source advances its per-cache monitor
    state, so the source keeps tracking the bound the sibling actually
    holds — the containment invariant survives; the sibling just misses
    an opportunistic tightening.
    """

    source_id: str
    cache_id: str
    start: float
    end: float

    def covers(self, now: float) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end


@dataclass(frozen=True, slots=True)
class CacheCrash:
    """``cache_id`` is crashed (cannot dispatch refreshes) in-window."""

    cache_id: str
    start: float
    end: float

    def covers(self, now: float) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end


class FaultInjector:
    """Clock-driven fault oracle consulted by caches and sources.

    ``clock`` is a :class:`~repro.simulation.Clock` (anything with a
    ``now()``) or a bare ``() -> float`` callable.  Faults are added via
    the ``add_*`` methods or injected one-shot with :meth:`fail_next`
    (the next ``count`` contacts to a source fail — the deterministic way
    to exercise retry-then-succeed paths).  ``events`` counts what was
    actually injected, for tests and reports.
    """

    def __init__(self, clock: Callable[[], float] | object) -> None:
        self.now: Callable[[], float] = (
            clock.now if hasattr(clock, "now") else clock  # type: ignore[union-attr]
        )
        self._outages: dict[str, list[OutageWindow]] = {}
        self._spikes: dict[str, list[LatencySpike]] = {}
        self._drops: dict[tuple[str, str], list[FanoutDrop]] = {}
        self._crashes: dict[str, list[CacheCrash]] = {}
        self._fail_next: dict[str, int] = {}
        self.events: dict[str, int] = {
            "source_outage": 0,
            "latency_spike": 0,
            "fanout_drop": 0,
            "cache_crash": 0,
            "forced_failure": 0,
        }

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def add_outage(self, window: OutageWindow) -> "FaultInjector":
        """Schedule a source outage window; returns ``self`` for chaining."""
        self._outages.setdefault(window.source_id, []).append(window)
        return self

    def add_latency_spike(self, spike: LatencySpike) -> "FaultInjector":
        """Schedule a latency spike window; returns ``self`` for chaining."""
        self._spikes.setdefault(spike.source_id, []).append(spike)
        return self

    def add_fanout_drop(self, drop: FanoutDrop) -> "FaultInjector":
        """Schedule a fan-out drop window; returns ``self`` for chaining."""
        self._drops.setdefault((drop.source_id, drop.cache_id), []).append(drop)
        return self

    def add_crash(self, crash: CacheCrash) -> "FaultInjector":
        """Schedule a cache crash window; returns ``self`` for chaining."""
        self._crashes.setdefault(crash.cache_id, []).append(crash)
        return self

    def extend(self, faults: Iterable[object]) -> "FaultInjector":
        """Add a heterogeneous iterable of fault windows."""
        for fault in faults:
            if isinstance(fault, OutageWindow):
                self.add_outage(fault)
            elif isinstance(fault, LatencySpike):
                self.add_latency_spike(fault)
            elif isinstance(fault, FanoutDrop):
                self.add_fanout_drop(fault)
            elif isinstance(fault, CacheCrash):
                self.add_crash(fault)
            else:
                raise TypeError(f"not a fault window: {fault!r}")
        return self

    def fail_next(self, source_id: str, count: int = 1) -> "FaultInjector":
        """Force the next ``count`` contacts to ``source_id`` to fail.

        One-shot transient faults, independent of the clock — the
        deterministic way to test a retry that then succeeds.
        """
        self._fail_next[source_id] = self._fail_next.get(source_id, 0) + count
        return self

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------
    def source_available(self, source_id: str) -> bool:
        """Whether ``source_id`` would accept a contact right now."""
        if self._fail_next.get(source_id, 0) > 0:
            return False
        now = self.now()
        return not any(
            window.covers(now) for window in self._outages.get(source_id, ())
        )

    def check_source(self, source_id: str) -> None:
        """Raise :class:`SourceUnavailableError` if the source is down."""
        budget = self._fail_next.get(source_id, 0)
        if budget > 0:
            self._fail_next[source_id] = budget - 1
            self.events["forced_failure"] += 1
            raise SourceUnavailableError(
                f"injected transient failure contacting source {source_id!r}",
                sources=(source_id,),
            )
        now = self.now()
        if any(window.covers(now) for window in self._outages.get(source_id, ())):
            self.events["source_outage"] += 1
            raise SourceUnavailableError(
                f"source {source_id!r} is in an outage window at t={now:g}",
                sources=(source_id,),
            )

    def latency_of(self, source_id: str) -> float:
        """Extra per-contact latency for ``source_id`` right now."""
        now = self.now()
        delay = sum(
            spike.delay
            for spike in self._spikes.get(source_id, ())
            if spike.covers(now)
        )
        if delay:
            self.events["latency_spike"] += 1
        return delay

    def drops_fanout(self, source_id: str, cache_id: str) -> bool:
        """Whether a fan-out push source→cache is dropped right now."""
        windows = self._drops.get((source_id, cache_id))
        if not windows:
            return False
        now = self.now()
        if any(window.covers(now) for window in windows):
            self.events["fanout_drop"] += 1
            return True
        return False

    def cache_available(self, cache_id: str) -> bool:
        """Whether ``cache_id`` is up (not in a crash window) right now."""
        now = self.now()
        return not any(
            window.covers(now) for window in self._crashes.get(cache_id, ())
        )

    def check_cache(self, cache_id: str) -> None:
        """Raise :class:`CacheUnavailableError` if the cache is crashed."""
        now = self.now()
        if any(window.covers(now) for window in self._crashes.get(cache_id, ())):
            self.events["cache_crash"] += 1
            raise CacheUnavailableError(
                f"cache {cache_id!r} is crashed at t={now:g}", cache_id=cache_id
            )

    # ------------------------------------------------------------------
    def attach(self, system) -> "FaultInjector":
        """Point every cache and source of ``system`` at this injector.

        Components check ``self.fault_injector`` opportunistically, so
        detaching is just ``cache.fault_injector = None``.
        """
        for cache in system._caches.values():
            cache.fault_injector = self
        for source in system._sources.values():
            source.fault_injector = self
        # Remember the attachment on the system so components created
        # later — an elastically admitted replica, a new shard — join
        # the same fault plane instead of bypassing the chaos schedule.
        system.fault_injector = self
        return self
