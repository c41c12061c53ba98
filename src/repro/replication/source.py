"""Data sources and their refresh monitors (paper §3, Figure 3).

A :class:`DataSource` owns the master copy of one or more tables: every
bounded column of every tuple has a single exact value ``V_i`` that only
the source may update.  Its embedded :class:`RefreshMonitor` tracks, for
every registered cache, the bound function the cache currently holds for
each object, and enforces the TRAPP contract: the moment an update pushes
a master value outside any cache's bound, the source emits a
*value-initiated* refresh to that cache.  *Query-initiated* refreshes are
answered on demand with the current exact value plus a fresh bound
function whose width comes from the object's width policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.bounds.functions import BoundFunction, BoundShape, SqrtShape
from repro.bounds.width import AdaptiveWidthController, WidthPolicy
from repro.errors import ReplicationProtocolError, SchemaError
from repro.replication.messages import (
    CardinalityChange,
    ObjectKey,
    Refresh,
    RefreshPayload,
    RefreshReason,
    RefreshRequest,
)
from repro.storage.table import Table

__all__ = ["RefreshMonitor", "DataSource"]

#: Callback type used to deliver a message to a cache; the simulation layer
#: interposes latency here.
DeliverFunc = Callable[[str, object], None]


@dataclass(slots=True)
class _TrackedBound:
    """One cache's bound function for one object, as the source remembers it."""

    bound_function: BoundFunction
    policy: WidthPolicy


class RefreshMonitor:
    """Per-source bookkeeping of every remotely cached bound (§3).

    The paper asks a source serving many caches for a scalable trigger
    system; this is one.  Per tracked object the monitor keeps every
    cache's :class:`_TrackedBound` in one cache-id-ordered dict, and
    beside it a *safe window* ``(lo, hi, checked_at)``: the intersection
    ``[max_c L_c(t), min_c H_c(t)]`` of all those bounds at the time
    ``t`` of the last full check that found no violation.  A
    :class:`~repro.bounds.functions.BoundShape` is monotonically
    non-decreasing, so each bound only widens until a refresh replaces
    it: a later master value inside the window is inside every cache's
    bound, and :meth:`violations` answers with one dict probe and three
    float comparisons however many caches track the object.

    Three things keep that sound.  The shapes are monotone by contract.
    Every writer of an object's trackers — :meth:`track`,
    :meth:`update`, :meth:`forget_cache`, :meth:`forget_object`,
    :meth:`extract_object`, :meth:`adopt_object`, and nothing else —
    drops the object's window, so a window never outlives the bounds it
    was computed from.  And the window is trusted only for
    ``checked_at <= now``: a clock that steps backwards takes the full
    check, which raises if ``now`` precedes a refresh time.

    A refresh installs a zero-width bound, so the first check after it
    is a full one and each later full check ratchets the window
    outward: the window pays when an object sees several updates per
    refresh and is neutral when it sees about one.
    """

    def __init__(self) -> None:
        # Trackers per object, each inner dict in ascending cache-id
        # order: the order value-initiated refreshes are sent in.
        self._objects: dict[ObjectKey, dict[str, _TrackedBound]] = {}
        self._windows: dict[ObjectKey, tuple[float, float, float]] = {}
        self._tracked_count = 0
        # Running per-table totals of bound violations detected, one
        # count per (violating cache, update); the telemetry layer
        # surfaces these through the ``metrics`` wire op.
        self._violation_counts: dict[str, int] = {}
        #: Checks the window answered / checks that evaluated the bounds;
        #: plain tallies, pulled at collection time.
        self.window_answers = 0
        self.full_checks = 0

    def track(
        self, cache_id: str, key: ObjectKey, bound_function: BoundFunction,
        policy: WidthPolicy,
    ) -> None:
        self._install(cache_id, key, _TrackedBound(bound_function, policy))

    def update(
        self, key: ObjectKey, entry: _TrackedBound, bound_function: BoundFunction
    ) -> None:
        """Replace the bound function of one of ``key``'s trackers.

        ``entry`` is what :meth:`entry`, :meth:`trackers` or
        :meth:`violations` handed out for ``key``: the caller read the
        policy from it already, so it is not looked up again.
        """
        entry.bound_function = bound_function
        self._windows.pop(key, None)

    def forget_cache(self, cache_id: str) -> None:
        held = [key for key, trackers in self._objects.items() if cache_id in trackers]
        for key in held:
            trackers = self._objects[key]
            del trackers[cache_id]
            if not trackers:
                del self._objects[key]
            self._windows.pop(key, None)
        self._tracked_count -= len(held)

    def forget_object(self, key: ObjectKey) -> None:
        self.extract_object(key)

    def extract_object(self, key: ObjectKey) -> dict[str, _TrackedBound]:
        """Pop every cache's tracker for one object and return them.

        The master-migration path moves these entries — bound functions
        *and* live width-policy state — to the destination shard's
        monitor via :meth:`adopt_object`, so the containment contract and
        policy lockstep survive the move unchanged.
        """
        entries = self._objects.pop(key, {})
        self._windows.pop(key, None)
        self._tracked_count -= len(entries)
        return entries

    def adopt_object(
        self, key: ObjectKey, entries: dict[str, _TrackedBound]
    ) -> None:
        """Install trackers extracted from another monitor (migration)."""
        for cache_id, entry in entries.items():
            self._install(cache_id, key, entry)

    def _install(self, cache_id: str, key: ObjectKey, entry: _TrackedBound) -> None:
        self._windows.pop(key, None)
        trackers = self._objects.get(key)
        if trackers is None:
            self._objects[key] = {cache_id: entry}
        elif cache_id in trackers:
            trackers[cache_id] = entry
            return
        else:
            in_order = next(reversed(trackers)) < cache_id
            trackers[cache_id] = entry
            if not in_order:
                self._objects[key] = dict(sorted(trackers.items()))
        self._tracked_count += 1

    def entry(self, cache_id: str, key: ObjectKey) -> _TrackedBound:
        """One cache's tracker for one object."""
        try:
            return self._objects[key][cache_id]
        except KeyError:
            raise ReplicationProtocolError(
                f"cache {cache_id!r} is not registered for object {key}"
            ) from None

    def trackers(self, key: ObjectKey) -> Mapping[str, _TrackedBound]:
        """Every cache's tracker for one object, in cache-id order.

        Read-only for callers: bound functions change through :meth:`update`.
        """
        return self._objects.get(key) or {}

    def violations(
        self, key: ObjectKey, value: float, now: float
    ) -> list[tuple[str, _TrackedBound]]:
        """Caches whose bound for ``key`` no longer contains ``value``,
        in cache-id order."""
        window = self._windows.get(key)
        if window is not None:
            lo, hi, checked_at = window
            if checked_at <= now and lo <= value <= hi:
                self.window_answers += 1
                return []
        trackers = self._objects.get(key)
        if trackers is None:
            return []
        self.full_checks += 1
        out: list[tuple[str, _TrackedBound]] = []
        lo, hi = -math.inf, math.inf
        for cache_id, entry in trackers.items():
            bound_lo, bound_hi = entry.bound_function.endpoints_at(now)
            if not bound_lo <= value <= bound_hi:
                out.append((cache_id, entry))
            else:
                if bound_lo > lo:
                    lo = bound_lo
                if bound_hi < hi:
                    hi = bound_hi
        if out:
            self._violation_counts[key.table] = (
                self._violation_counts.get(key.table, 0) + len(out)
            )
        else:
            self._windows[key] = (lo, hi, now)
        return out

    def violation_counts(self) -> dict[str, int]:
        """Total bound violations detected so far, keyed by table name."""
        return dict(self._violation_counts)

    def caches_tracking(self, key: ObjectKey) -> list[str]:
        return list(self._objects.get(key, ()))

    def entries_for_cache(self, cache_id: str) -> list[tuple[ObjectKey, "_TrackedBound"]]:
        """Every (key, tracked bound) pair held on behalf of one cache."""
        return [
            (key, trackers[cache_id])
            for key, trackers in self._objects.items()
            if cache_id in trackers
        ]

    def tracked_count(self) -> int:
        return self._tracked_count


class DataSource:
    """The master copy of one or more tables plus its refresh monitor."""

    def __init__(
        self,
        source_id: str,
        clock: Callable[[], float] = lambda: 0.0,
        shape: BoundShape | None = None,
        default_policy_factory: Callable[[], WidthPolicy] | None = None,
        piggyback: "object | None" = None,
    ) -> None:
        self.source_id = source_id
        self.clock = clock
        self.shape = shape if shape is not None else SqrtShape()
        self._policy_factory = default_policy_factory or AdaptiveWidthController
        #: Optional §8.3 piggyback policy; when set, refresh responses may
        #: carry extra payloads for objects near their bound edges.
        self.piggyback = piggyback
        self.piggybacked_refreshes = 0
        #: Replication fan-out (multi-cache groups): when set, answering
        #: one cache's query-initiated refresh also pushes the fresh master
        #: value to sibling caches tracking the object, so a refresh any
        #: replica pays for tightens bounds group-wide.  ``False`` (the
        #: default) keeps the classic per-cache protocol; a
        #: :class:`~repro.replication.fanout.CacheGroup` installs *itself*
        #: here so pushes reach only its members — caches outside the
        #: group (a standalone pinned cache sharing the source) keep their
        #: own refresh schedules and width-policy state; ``True`` pushes
        #: to every tracking cache regardless.
        self.refresh_fanout: "bool | object" = False
        self.fanout_refreshes = 0
        self._tables: dict[str, Table] = {}
        self.monitor = RefreshMonitor()
        self._deliver: dict[str, DeliverFunc] = {}
        # Statistics for experiments.
        self.value_initiated_refreshes = 0
        self.query_initiated_refreshes = 0

    # ------------------------------------------------------------------
    # Table and cache management
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ReplicationProtocolError(
                f"source {self.source_id!r} already serves table {table.name!r}"
            )
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ReplicationProtocolError(
                f"source {self.source_id!r} does not serve table {name!r}"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def connect_cache(self, cache_id: str, deliver: DeliverFunc) -> None:
        """Register the delivery channel for one cache."""
        self._deliver[cache_id] = deliver

    def disconnect_cache(self, cache_id: str) -> None:
        """Tear down one cache's presence at this source entirely.

        Drops the delivery channel (no further value-initiated refreshes,
        cardinality broadcasts, or fan-out pushes reach it) and evicts
        every monitor tracker held on the cache's behalf — the eviction a
        detached replica must trigger so the per-object cache index does
        not keep phantom subscribers alive (they would otherwise receive
        policy feedback and count as violations forever).
        """
        self._deliver.pop(cache_id, None)
        self.monitor.forget_cache(cache_id)

    def adopt_subscription(
        self,
        cache_id: str,
        key: ObjectKey,
        bound_function: BoundFunction,
        policy: WidthPolicy,
    ) -> None:
        """Track a snapshot-transferred subscription (late-joiner admit).

        Unlike :meth:`register`, no fresh bound function is minted and no
        policy feedback fires: the joiner arrives carrying a sibling's
        exact bound function and a clone of that sibling's policy state,
        so it enters the fan-out lockstep mid-sequence — which is what
        keeps K-cache ≡ 1-cache equivalence intact across admission.
        ``query_initiated_refreshes`` is deliberately not incremented:
        admission is a cache-to-cache transfer, not a master contact.
        """
        self._master_value(key)  # validate the object is served here
        self.monitor.track(cache_id, key, bound_function, policy)

    # ------------------------------------------------------------------
    # Registration: a cache subscribes to an object
    # ------------------------------------------------------------------
    def register(
        self, cache_id: str, key: ObjectKey, policy: WidthPolicy | None = None
    ) -> RefreshPayload:
        """Subscribe a cache to an object; returns the initial payload.

        The initial bound function starts at the current exact value with
        the policy's width parameter.
        """
        value = self._master_value(key)
        policy = policy if policy is not None else self._policy_factory()
        bound_function = BoundFunction(
            value_at_refresh=value,
            width_parameter=policy.next_width(),
            refreshed_at=self.clock(),
            shape=self.shape,
        )
        self.monitor.track(cache_id, key, bound_function, policy)
        return RefreshPayload(key, value, bound_function)

    # ------------------------------------------------------------------
    # Query-initiated refresh
    # ------------------------------------------------------------------
    def handle_refresh_request(self, request: RefreshRequest) -> Refresh:
        """Answer a cache's query-initiated refresh request synchronously."""
        requested = []
        now = self.clock()
        for key in request.keys:
            value = self._master_value(key)
            entry = self.monitor.entry(request.cache_id, key)
            entry.policy.on_query_initiated()
            bound_function = self._renew(key, entry, value, now)
            requested.append(RefreshPayload(key, value, bound_function))
            self.query_initiated_refreshes += 1
        piggybacked = self._piggyback_payloads(request, now)
        if self.refresh_fanout:
            self._fanout_refresh(request.cache_id, requested, piggybacked, now)
        return Refresh(
            source_id=self.source_id,
            reason=RefreshReason.QUERY_INITIATED,
            payloads=tuple(requested + piggybacked),
            sent_at=now,
        )

    def _fanout_refresh(
        self,
        requester: str,
        requested: list[RefreshPayload],
        piggybacked: list[RefreshPayload],
        now: float,
    ) -> None:
        """Push the refreshed objects' fresh values to sibling caches.

        ``requested`` and ``piggybacked`` are the payloads just minted
        for ``requester``; their master values are reused, not re-read.
        Each sibling's entry advances through the *same* policy sequence
        as the requester's — ``on_query_initiated`` + ``next_width`` for
        requested keys, ``next_width`` alone for piggybacked ones — so
        replicas that subscribed in lockstep stay in lockstep, the
        invariant behind the group's K-cache ≡ 1-cache answer
        equivalence.  One :class:`Refresh` message per sibling carries
        every refreshed object that sibling tracks.  When
        :attr:`refresh_fanout` is a membership (a
        :class:`~repro.replication.fanout.CacheGroup`), only its member
        caches receive pushes.

        A sibling missing from :meth:`RefreshMonitor.trackers` gets no
        push, and its policy and tracked bound stay as they were: the
        monitor keeps tracking the bound the sibling actually holds, so a
        later master-value escape still triggers a value-initiated
        refresh.  A lost push therefore costs the sibling one
        opportunistic tightening, never containment.
        """
        membership = self.refresh_fanout
        per_cache: dict[str, list[RefreshPayload]] = {}
        for payloads, query_feedback in ((requested, True), (piggybacked, False)):
            for key, value, _ in payloads:
                for cache_id, entry in self.monitor.trackers(key).items():
                    if cache_id == requester:
                        continue
                    if membership is not True and cache_id not in membership:
                        continue
                    if query_feedback:
                        entry.policy.on_query_initiated()
                    bound_function = self._renew(key, entry, value, now)
                    per_cache.setdefault(cache_id, []).append(
                        RefreshPayload(key, value, bound_function)
                    )
        for cache_id, payloads in per_cache.items():
            self.fanout_refreshes += len(payloads)
            self._send(
                cache_id,
                Refresh(
                    source_id=self.source_id,
                    reason=RefreshReason.FANOUT,
                    payloads=tuple(payloads),
                    sent_at=now,
                ),
            )

    def _piggyback_payloads(
        self, request: RefreshRequest, now: float
    ) -> list[RefreshPayload]:
        """§8.3 piggybacking: refresh endangered objects while we're at it.

        Piggybacked refreshes reuse the object's current width (they are
        opportunistic, not a precision signal, so the width policy receives
        no feedback).
        """
        if self.piggyback is None:
            return []
        requested = set(request.keys)
        tracked = [
            (key, self._master_value(key), entry.bound_function.at(now))
            for key, entry in self.monitor.entries_for_cache(request.cache_id)
            if key not in requested
        ]
        extras = []
        for key in self.piggyback.select(requested, tracked):
            value = self._master_value(key)
            entry = self.monitor.entry(request.cache_id, key)
            bound_function = self._renew(key, entry, value, now)
            extras.append(RefreshPayload(key, value, bound_function))
            self.piggybacked_refreshes += 1
        return extras

    # ------------------------------------------------------------------
    # Master updates and value-initiated refresh
    # ------------------------------------------------------------------
    def apply_update(self, key: ObjectKey, new_value: float) -> list[Refresh]:
        """Update a master value, emitting value-initiated refreshes as
        required by the TRAPP contract.

        ``new_value`` is coerced to a float once, up front; a value that
        is not a finite number raises :class:`SchemaError` before the
        master cell or the monitor is touched.
        """
        try:
            value = float(new_value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(
                f"master value of {key} must be a float64 number, got {new_value!r}"
            ) from None
        if not math.isfinite(value):
            raise SchemaError(f"master value of {key} must be finite, got {value}")
        self.table(key.table).update_value(key.tid, key.column, value)
        now = self.clock()
        refreshes: list[Refresh] = []
        for cache_id, entry in self.monitor.violations(key, value, now):
            entry.policy.on_value_initiated()
            bound_function = self._renew(key, entry, value, now)
            refresh = Refresh(
                source_id=self.source_id,
                reason=RefreshReason.VALUE_INITIATED,
                payloads=(RefreshPayload(key, value, bound_function),),
                sent_at=now,
            )
            self.value_initiated_refreshes += 1
            self._send(cache_id, refresh)
            refreshes.append(refresh)
        return refreshes

    # ------------------------------------------------------------------
    # Insertions and deletions (propagated immediately, §3)
    # ------------------------------------------------------------------
    def insert_row(
        self, table_name: str, values: dict, tid: int | None = None
    ) -> CardinalityChange:
        """Insert a master row, broadcasting the cardinality change.

        ``tid`` lets a :class:`~repro.replication.sharding.ShardedSource`
        allocate tuple ids globally across its shards; plain sources
        leave it ``None`` and take the table's next id.
        """
        table = self.table(table_name)
        row = table.insert(values, tid=tid)
        change = CardinalityChange(
            source_id=self.source_id,
            table=table_name,
            tid=row.tid,
            values=dict(values),
        )
        self._broadcast(change)
        return change

    def delete_row(self, table_name: str, tid: int) -> CardinalityChange:
        table = self.table(table_name)
        table.delete(tid)
        for column in table.schema.column_names:
            self.monitor.forget_object(ObjectKey(table_name, tid, column))
        change = CardinalityChange(
            source_id=self.source_id, table=table_name, tid=tid, values=None
        )
        self._broadcast(change)
        return change

    # ------------------------------------------------------------------
    def _renew(
        self, key: ObjectKey, entry: _TrackedBound, value: float, now: float
    ) -> BoundFunction:
        """Mint the zero-width bound a refresh carries, at the policy's
        next width, and have the monitor track it for ``entry``'s cache."""
        bound_function = BoundFunction(
            value_at_refresh=value,
            width_parameter=entry.policy.next_width(),
            refreshed_at=now,
            shape=self.shape,
        )
        self.monitor.update(key, entry, bound_function)
        return bound_function

    def _master_value(self, key: ObjectKey) -> float:
        lo, hi = self.table(key.table).columns.cell(key.tid, key.column)
        if lo != hi:
            raise TypeError(
                f"master object {key} holds the non-exact bound [{lo}, {hi}]"
            )
        return lo

    def _send(self, cache_id: str, message: object) -> None:
        deliver = self._deliver.get(cache_id)
        if deliver is not None:
            deliver(cache_id, message)

    def _broadcast(self, message: object) -> None:
        for cache_id in self._deliver:
            self._send(cache_id, message)
