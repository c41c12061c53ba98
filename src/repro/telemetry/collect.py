"""Pull-time collectors: live system state rendered into the registry.

Counters cover *events*; some of the paper's most interesting telemetry
is *state* — the live bound-width distribution of every cached column
(the precision actually being delivered right now, §6/§8), the refresh
monitor's per-table precision-violation totals, and the replication-layer
message counters the simulation has always kept on its objects.  Walking
that state per event would be wasteful, so these run as registry
collectors: every :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`
re-derives them from the deployment just before rendering.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.registry import DEFAULT_WIDTH_BUCKETS, MetricsRegistry

__all__ = ["register_system_collectors"]


def register_system_collectors(registry: MetricsRegistry, system) -> None:
    """Wire one :class:`~repro.replication.system.TrappSystem`'s live
    state into ``registry`` (idempotent per registry/system pair)."""
    if not registry.enabled:
        return

    def collect(reg: MetricsRegistry) -> None:
        _collect_bound_widths(reg, system)
        _collect_cache_counters(reg, system)
        _collect_source_counters(reg, system)

    registry.add_collector(collect)


# ----------------------------------------------------------------------
def _collect_bound_widths(registry: MetricsRegistry, system) -> None:
    """Live (hi − lo) distribution of every cached bounded column."""
    family = registry.histogram(
        "trapp_bound_width",
        "Live bound widths of cached tuples (current precision)",
        ("cache", "table", "column"),
        buckets=DEFAULT_WIDTH_BUCKETS,
    )
    tuples_gauge = registry.gauge(
        "trapp_cached_tuples",
        "Tuples currently replicated per cached table",
        ("cache", "table"),
    )
    for cache in system._caches.values():
        for table in cache.catalog:
            tuples_gauge.labels(cache=cache.cache_id, table=table.name).set(
                len(table)
            )
            store = table.columns
            for column in table.schema:
                if not column.is_bounded:
                    continue
                lo, hi = store.endpoints(column.name)
                widths = hi - lo
                edges = np.asarray(DEFAULT_WIDTH_BUCKETS, dtype=np.float64)
                counts = np.bincount(
                    np.searchsorted(edges, widths, side="left"),
                    minlength=len(edges) + 1,
                )
                family.labels(
                    cache=cache.cache_id, table=table.name, column=column.name
                ).set_snapshot(
                    counts.tolist(), float(widths.sum()), int(widths.size)
                )


def _collect_cache_counters(registry: MetricsRegistry, system) -> None:
    family = registry.gauge(
        "trapp_cache_messages",
        "Replication messages per cache (running totals)",
        ("cache", "kind"),
    )
    for cache in system._caches.values():
        cid = cache.cache_id
        family.labels(cache=cid, kind="refreshes_received").set(
            cache.refreshes_received
        )
        family.labels(cache=cid, kind="refresh_requests_sent").set(
            cache.refresh_requests_sent
        )
        family.labels(cache=cid, kind="fanout_refreshes_received").set(
            cache.fanout_refreshes_received
        )
        # Refresh messages by how they were applied; two plain integers
        # on the cache, so the one-payload path increments no instrument.
        family.labels(cache=cid, kind="cell_route").set(cache.cell_route_messages)
        family.labels(cache=cid, kind="column_route").set(
            cache.column_route_messages
        )


def _collect_source_counters(registry: MetricsRegistry, system) -> None:
    refreshes = registry.gauge(
        "trapp_source_refreshes",
        "Refreshes answered per source, by protocol reason",
        ("source", "kind"),
    )
    violations = registry.gauge(
        "trapp_precision_violations",
        "Bound violations detected by each source's refresh monitor",
        ("source", "table"),
    )
    checks = registry.gauge(
        "trapp_monitor_checks",
        "Trigger checks of tracked objects, by whether the per-object safe "
        "window answered or the cached bounds were evaluated",
        ("source", "outcome"),
    )
    seen: set[int] = set()
    for source in system._sources.values():
        monitor = getattr(source, "monitor", None)
        if monitor is None or id(source) in seen:
            continue  # ShardedSource wrappers re-expose their shards
        seen.add(id(source))
        sid = source.source_id
        refreshes.labels(source=sid, kind="query_initiated").set(
            source.query_initiated_refreshes
        )
        refreshes.labels(source=sid, kind="value_initiated").set(
            source.value_initiated_refreshes
        )
        refreshes.labels(source=sid, kind="fanout").set(source.fanout_refreshes)
        refreshes.labels(source=sid, kind="piggybacked").set(
            source.piggybacked_refreshes
        )
        for table_name, count in sorted(monitor.violation_counts().items()):
            violations.labels(source=sid, table=table_name).set(count)
        checks.labels(source=sid, outcome="window").set(monitor.window_answers)
        checks.labels(source=sid, outcome="evaluated").set(monitor.full_checks)
