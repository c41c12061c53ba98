"""Seeded chaos scenarios for the fault-injection harness.

The :mod:`repro.faults` injector is pure *mechanism* — it answers "is X
available at t?" from an explicit schedule.  This module is the *policy*:
a :class:`ChaosScenario` describes target fault rates, and
:func:`chaos_schedule` expands it into a deterministic window schedule —
time is sliced into fixed windows and each (component, window) pair
independently draws "faulted?" at the scenario's rate from one seeded
stream.  Same scenario + same component ids ⇒ bit-identical schedule,
which is what lets the chaos golden test compare availability across outage
rates and lets a failing run be replayed exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults import (
    CacheCrash,
    FanoutDrop,
    FaultInjector,
    LatencySpike,
    OutageWindow,
)

__all__ = ["ChaosScenario", "chaos_injector", "chaos_schedule"]


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """Target fault rates for one seeded chaos run.

    Rates are *per (component, window)* probabilities: ``outage_rate=0.2``
    with a 20 s window means each source is down for ~20 % of the run's
    windows, independently.  ``crash_rate``/``drop_rate`` default to zero
    so the plain scenario exercises only the source-outage path; the
    tests opt into the others explicitly.
    """

    seed: int = 17
    #: Schedule horizon, in clock seconds from ``start``.
    start: float = 0.0
    duration: float = 600.0
    #: Width of one fault window; every fault lasts exactly one window.
    window: float = 20.0
    #: P(source refuses contacts) per (source, window).
    outage_rate: float = 0.2
    #: P(source answers slowly) per (source, window).
    latency_rate: float = 0.1
    #: Extra per-contact latency drawn uniformly from this range.
    latency_delay: tuple[float, float] = (0.05, 0.5)
    #: P(fan-out push lost) per (source, cache, window).
    drop_rate: float = 0.0
    #: P(cache crashed) per (cache, window).
    crash_rate: float = 0.0


def chaos_schedule(
    source_ids: "list[str] | tuple[str, ...]",
    cache_ids: "list[str] | tuple[str, ...]",
    scenario: ChaosScenario,
) -> list[object]:
    """The scenario expanded into concrete fault windows (pure function).

    Components are visited in sorted order and all draws come from one
    ``random.Random(scenario.seed)`` stream, so the schedule depends only
    on ``(scenario, sorted ids)`` — never on dict order or wall clock.
    """
    rng = random.Random(scenario.seed)
    sources = sorted(source_ids)
    caches = sorted(cache_ids)
    faults: list[object] = []
    edge = scenario.start + scenario.duration
    start = scenario.start
    while start < edge:
        end = min(start + scenario.window, edge)
        for source_id in sources:
            if rng.random() < scenario.outage_rate:
                faults.append(OutageWindow(source_id, start, end))
            if rng.random() < scenario.latency_rate:
                faults.append(
                    LatencySpike(
                        source_id, start, end,
                        rng.uniform(*scenario.latency_delay),
                    )
                )
            for cache_id in caches:
                if rng.random() < scenario.drop_rate:
                    faults.append(
                        FanoutDrop(source_id, cache_id, start, end)
                    )
        for cache_id in caches:
            if rng.random() < scenario.crash_rate:
                faults.append(CacheCrash(cache_id, start, end))
        start = end
    return faults


def chaos_injector(system, scenario: ChaosScenario) -> FaultInjector:
    """A :class:`FaultInjector` for ``system`` loaded with the scenario.

    Targets the system's *contact-level* sources (the shard sources a
    cache actually sends refresh requests to, not sharded-namespace
    wrappers) and every cache, builds the seeded schedule, and attaches
    the injector so caches and sources consult it.
    """
    from repro.replication.source import DataSource

    source_ids = [
        source_id
        for source_id, source in system._sources.items()
        if isinstance(source, DataSource)
    ]
    cache_ids = list(system._caches)
    injector = FaultInjector(system.clock)
    injector.extend(chaos_schedule(source_ids, cache_ids, scenario))
    return injector.attach(system)
