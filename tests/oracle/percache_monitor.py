"""The per-cache refresh monitor ``RefreshMonitor`` used to be.

One tracker per ``(cache, object)`` and, on every check, one ``Bound``
per tracking cache: the brute-force reference the per-object safe window
must agree with on violators, their order and the counts.  The bound is
evaluated the way ``BoundFunction.at`` was written before
``endpoints_at`` existed, so the reference shares no formula with the
code it checks.
"""

from __future__ import annotations

from repro.bounds.functions import BoundFunction
from repro.bounds.width import WidthPolicy
from repro.core.bound import Bound
from repro.errors import BoundError, ReplicationProtocolError
from repro.replication.messages import ObjectKey
from repro.replication.source import _TrackedBound


def _bound_at(function: BoundFunction, now: float) -> Bound:
    if now < function.refreshed_at - 1e-12:
        raise BoundError(
            f"bound evaluated at {now} before its refresh time "
            f"{function.refreshed_at}"
        )
    half_width = function.width_parameter * function.shape(now - function.refreshed_at)
    return Bound.around(function.value_at_refresh, half_width)


class PerCacheMonitor:
    """Per-source bookkeeping of every remotely cached bound (§3).

    Keys are ``(cache_id, ObjectKey)``; every check evaluates every
    tracking cache's bound.
    """

    def __init__(self) -> None:
        self._tracked: dict[tuple[str, ObjectKey], _TrackedBound] = {}
        # Per-object cache index, maintained alongside _tracked: master
        # updates and fan-out pushes touch one object across many caches,
        # and scanning every tracked entry per object is O(caches ×
        # objects) — the index makes both O(caches tracking the object).
        self._by_key: dict[ObjectKey, set[str]] = {}
        # Running per-table totals of bound violations detected, one
        # count per (violating cache, update); the telemetry layer
        # surfaces these through the ``metrics`` wire op.
        self._violation_counts: dict[str, int] = {}

    def track(
        self, cache_id: str, key: ObjectKey, bound_function: BoundFunction,
        policy: WidthPolicy,
    ) -> None:
        self._tracked[(cache_id, key)] = _TrackedBound(bound_function, policy)
        self._by_key.setdefault(key, set()).add(cache_id)

    def update(self, cache_id: str, key: ObjectKey, bound_function: BoundFunction) -> None:
        entry = self._entry(cache_id, key)
        entry.bound_function = bound_function

    def forget_cache(self, cache_id: str) -> None:
        for tracked_key in [k for k in self._tracked if k[0] == cache_id]:
            del self._tracked[tracked_key]
            caches = self._by_key.get(tracked_key[1])
            if caches is not None:
                caches.discard(cache_id)
                if not caches:
                    del self._by_key[tracked_key[1]]

    def forget_object(self, key: ObjectKey) -> None:
        for cache_id in self._by_key.pop(key, set()):
            del self._tracked[(cache_id, key)]

    def extract_object(self, key: ObjectKey) -> dict[str, _TrackedBound]:
        """Pop every cache's tracker for one object and return them.

        The master-migration path moves these entries — bound functions
        *and* live width-policy state — to the destination shard's
        monitor via :meth:`adopt_object`, so the containment contract and
        policy lockstep survive the move unchanged.
        """
        entries: dict[str, _TrackedBound] = {}
        for cache_id in self._by_key.pop(key, set()):
            entries[cache_id] = self._tracked.pop((cache_id, key))
        return entries

    def adopt_object(
        self, key: ObjectKey, entries: dict[str, _TrackedBound]
    ) -> None:
        """Install trackers extracted from another monitor (migration)."""
        for cache_id, entry in entries.items():
            self._tracked[(cache_id, key)] = entry
            self._by_key.setdefault(key, set()).add(cache_id)

    def policy(self, cache_id: str, key: ObjectKey) -> WidthPolicy:
        return self._entry(cache_id, key).policy

    def violations(
        self, key: ObjectKey, value: float, now: float
    ) -> list[tuple[str, _TrackedBound]]:
        """Caches whose bound for ``key`` no longer contains ``value``."""
        out: list[tuple[str, _TrackedBound]] = []
        for cache_id in sorted(self._by_key.get(key, ())):
            entry = self._tracked[(cache_id, key)]
            if not _bound_at(entry.bound_function, now).contains(value):
                out.append((cache_id, entry))
        if out:
            self._violation_counts[key.table] = (
                self._violation_counts.get(key.table, 0) + len(out)
            )
        return out

    def violation_counts(self) -> dict[str, int]:
        """Total bound violations detected so far, keyed by table name."""
        return dict(self._violation_counts)

    def caches_tracking(self, key: ObjectKey) -> list[str]:
        return sorted(self._by_key.get(key, ()))

    def entries_for_cache(self, cache_id: str) -> list[tuple[ObjectKey, "_TrackedBound"]]:
        """Every (key, tracked bound) pair held on behalf of one cache."""
        return [
            (key, entry)
            for (cid, key), entry in self._tracked.items()
            if cid == cache_id
        ]

    def tracked_count(self) -> int:
        return len(self._tracked)

    def _entry(self, cache_id: str, key: ObjectKey) -> _TrackedBound:
        try:
            return self._tracked[(cache_id, key)]
        except KeyError:
            raise ReplicationProtocolError(
                f"cache {cache_id!r} is not registered for object {key}"
            ) from None
