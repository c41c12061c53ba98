"""Unified telemetry: one registry, one tracer, one snapshot (PR 7).

The paper's contribution is a measurable trade-off — refresh cost paid
vs. answer precision delivered — and this package is where the serving
stack measures it.  :class:`Telemetry` bundles the two instruments every
layer shares:

* :class:`~repro.telemetry.registry.MetricsRegistry` — labeled counters,
  gauges, and fixed-bucket histograms with a no-op fast path when
  disabled, plus pull-time collectors for live state (bound-width
  distributions, monitor violation totals);
* :class:`~repro.telemetry.tracing.Tracer` — per-query spans through the
  step protocol (admit → route → plan → coalesce → dispatch → refresh →
  answer), timestamped by the simulation clock under simulation and
  ``perf_counter`` live.

The :class:`~repro.service.service.QueryService` builds one
``Telemetry`` per deployment (or accepts one), registers the system
collectors, and serves both halves over the wire via the ``metrics`` and
``trace`` ops.  ``docs/OBSERVABILITY.md`` catalogs every metric and the
span schema.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.collect import register_system_collectors
from repro.telemetry.exposition import render_text
from repro.telemetry.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    DEFAULT_WIDTH_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.tracing import STEP_ORDER, QueryTrace, Tracer

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Tracer",
    "QueryTrace",
    "STEP_ORDER",
    "render_text",
    "register_system_collectors",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_WIDTH_BUCKETS",
]


class Telemetry:
    """One deployment's registry + tracer behind a single switch.

    ``clock`` feeds the tracer's timestamps (pass the deployment's
    :meth:`simulation clock <repro.simulation.clock.Clock.now>` for
    deterministic spans; defaults to ``time.perf_counter``).
    ``enabled=False`` swaps in the no-op registry and null tracer so
    instrumented code runs unmetered.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
        trace_capacity: int = 256,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(
            clock=clock, capacity=trace_capacity, enabled=enabled
        )

    def observe_system(self, system) -> None:
        """Register the live-state collectors for one
        :class:`~repro.replication.system.TrappSystem` and hand every
        cache its event instruments."""
        register_system_collectors(self.registry, system)
        system.telemetry = self
        for cache in system._caches.values():
            cache.attach_telemetry(self.registry)

    def snapshot(self) -> dict:
        """The registry document served by the ``metrics`` wire op."""
        return self.registry.snapshot()

    def render_text(self) -> str:
        """Prometheus-style text exposition of the current snapshot."""
        return render_text(self.snapshot())
