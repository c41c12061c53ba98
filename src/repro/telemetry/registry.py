"""The metrics registry: labeled counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is the single source of truth for every
counter the serving stack maintains (PR 7).  Components create *families*
(``registry.counter("trapp_queries_total")``) and record against
labeled *children* (``family.labels(cache="edge/0").inc()``); the
registry renders everything into one JSON-able snapshot for the wire
``metrics`` op and the Prometheus-style text exposition
(:mod:`repro.telemetry.exposition`).

State that is expensive or racy to track per event (live bound-width
distributions, monitor violation counts) is produced by *pull-time
collectors*: callbacks run at :meth:`MetricsRegistry.snapshot` time, the
Prometheus custom-collector idiom.

Histograms use *fixed* bucket boundaries chosen at family creation; the
``le`` edges are cumulative upper bounds with an implicit ``+Inf``
terminal bucket, exactly the Prometheus semantics.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable, Sequence

from repro.errors import TrappError

__all__ = [
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_WIDTH_BUCKETS",
]

#: Latency-shaped edges (seconds): microseconds through tens of seconds.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: Count-shaped edges (batch sizes, plans per tick).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
#: Bound-width-shaped edges (answer precision; workload units).
DEFAULT_WIDTH_BUCKETS = (
    0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)


class _Value:
    """A counter/gauge child: one float per label set."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    """One label set's fixed-bucket histogram (cumulative on render)."""

    __slots__ = ("_edges", "_counts", "_sum", "_count")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self._edges = edges
        # counts[i] = observations in (edges[i-1], edges[i]]; the last
        # slot is the +Inf overflow bucket.
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self._edges, value)] += 1
        self._sum += value
        self._count += 1

    def set_snapshot(
        self, counts: Sequence[int], total: float, count: int | None = None
    ) -> None:
        """Replace the histogram with an externally computed distribution.

        Collector-produced histograms (live bound-width snapshots) are
        re-derived whole at scrape time rather than observed
        incrementally; ``counts`` are per-bucket (not cumulative) and
        must cover the ``+Inf`` overflow slot.
        """
        if len(counts) != len(self._counts):
            raise TrappError(
                f"histogram snapshot carries {len(counts)} buckets, "
                f"expected {len(self._counts)}"
            )
        self._counts = [int(c) for c in counts]
        self._sum = float(total)
        self._count = sum(self._counts) if count is None else int(count)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for edge, bucket in zip(self._edges, self._counts):
            running += bucket
            out.append((edge, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out


class _Family:
    """One named metric family; children are keyed by their label values."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: str) -> object:
        if set(labels) != set(self.labelnames):
            raise TrappError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = (
                _HistogramChild(self.buckets)
                if self.kind == "histogram"
                else _Value()
            )
            self._children[key] = child
        return child

    # Label-less convenience: family-level calls hit the () child.
    def _default(self) -> object:
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def total(self) -> float:
        return self._default().total

    def samples(self) -> list[dict]:
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                out.append(
                    {
                        "labels": labels,
                        "buckets": [
                            [_json_edge(le), count]
                            for le, count in child.buckets()
                        ],
                        "sum": child.total,
                        "count": child.count,
                    }
                )
            else:
                out.append({"labels": labels, "value": child.value})
        return out


def _json_edge(le: float) -> "float | str":
    """Bucket upper bounds as strict JSON (``+Inf`` as a string)."""
    return "+Inf" if le == float("inf") else le


class MetricsRegistry:
    """Every telemetry instrument of one deployment, behind one snapshot."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        # Families and children are created lazily from async handlers
        # and (in live deployments) loop callbacks; creation is the only
        # structural mutation, so one lock suffices.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ):
        return self._family(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ):
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        return self._family(
            name, "histogram", help_text, labelnames,
            buckets=tuple(float(edge) for edge in buckets),
        )

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ):
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise TrappError(
                        f"metric {name!r} re-registered as {kind} with labels "
                        f"{labelnames!r}; it is a {family.kind} with "
                        f"{family.labelnames!r}"
                    )
                return family
            family = _Family(name, kind, help_text, labelnames, buckets)
            self._families[name] = family
            return family

    # ------------------------------------------------------------------
    def add_collector(self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Register a pull-time callback run before every snapshot.

        Collectors write gauges/histogram snapshots describing *current*
        state (live bound widths, monitor violation totals) — state that
        would be wasteful to maintain per event.
        """
        self._collectors.append(collect)

    def get(self, name: str):
        """The named family, or ``None``."""
        return self._families.get(name)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as one JSON-able document (the ``metrics`` op)."""
        for collect in self._collectors:
            collect(self)
        families = []
        with self._lock:
            ordered = sorted(self._families)
        for name in ordered:
            family = self._families[name]
            families.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": family.samples(),
                }
            )
        return {"families": families}

    def value_of(self, name: str, **labels: str) -> float:
        """One child's current value (0 when absent) — test/report sugar."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels.get(ln, "")) for ln in family.labelnames)
        child = family._children.get(key)
        if child is None:
            return 0.0
        return child.value if family.kind != "histogram" else child.total
