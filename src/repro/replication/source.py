"""Data sources and their refresh monitors (paper §3, Figure 3).

A :class:`DataSource` owns the master copy of one or more tables: every
bounded column of every tuple has a single exact value ``V_i`` that only
the source may update.  Its embedded :class:`RefreshMonitor` tracks, for
every registered cache, the bound function the cache currently holds for
each object, and enforces the TRAPP contract: the moment an update pushes
a master value outside any cache's bound, the source emits a
*value-initiated* refresh to that cache.  *Query-initiated* refreshes are
answered on demand, a column at a time: one gather of the master values
per bounded column, one width-policy step per object, and per column the
arrays ``(tids, V, W)`` under one refresh time ``T_r`` — which the
fan-out to sibling replicas reuses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.bounds.functions import (
    BoundFunction,
    BoundParameters,
    BoundShape,
    SqrtShape,
    endpoints,
)
from repro.bounds.width import AdaptiveWidthController, WidthPolicy
from repro.errors import BoundError, ReplicationProtocolError, SchemaError
from repro.replication.messages import (
    CardinalityChange,
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)
from repro.storage.table import Table
from repro.telemetry.registry import SHORT_TIME_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.replication.fanout import CacheGroup

__all__ = ["RefreshMonitor", "DataSource"]

#: Callback type used to deliver a message to a cache; the simulation layer
#: interposes latency here.
DeliverFunc = Callable[[str, object], None]


def _finite_master_value(key: ObjectKey, value: object) -> float:
    """``value`` as a finite float, or :class:`SchemaError`."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"master value of {key} must be a float64 number, got {value!r}"
        ) from None
    if not math.isfinite(number):
        raise SchemaError(f"master value of {key} must be finite, got {number}")
    return number


def _width_error(width: float) -> BoundError:
    """A policy's width rejected as :class:`BoundFunction` rejects it."""
    return BoundError(f"width parameter must be non-negative, got {width}")


@dataclass(slots=True)
class _TrackedBound(BoundParameters):
    """One cache's bound function for one object, as the source remembers
    it: the Appendix A encoding ``(V(T_r), W, T_r)`` and the shape,
    renewed in place by every refresh, beside the object's width policy."""

    value_at_refresh: float
    width_parameter: float
    refreshed_at: float
    shape: BoundShape
    policy: WidthPolicy

    @classmethod
    def of(cls, function: BoundFunction, policy: WidthPolicy) -> "_TrackedBound":
        return cls(
            function.value_at_refresh, function.width_parameter,
            function.refreshed_at, function.shape, policy,
        )

    @property
    def bound_function(self) -> BoundFunction:
        """The tracked bound as one frozen object, built on each call."""
        return BoundFunction(
            self.value_at_refresh, self.width_parameter, self.refreshed_at,
            self.shape,
        )


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
        self._install(cache_id, key, _TrackedBound.of(bound_function, policy))

    def update(
        self, key: ObjectKey, entry: _TrackedBound, value: float, width: float,
        refreshed_at: float, shape: BoundShape,
    ) -> None:
        """Replace the bound of one of ``key``'s trackers by
        ``(value, width, refreshed_at, shape)``.

        ``entry`` is what :meth:`entry`, :meth:`trackers` or
        :meth:`violations` handed out for ``key``: the caller read the
        policy from it already, so it is not looked up again.
        """
        if width < 0:
            raise _width_error(width)
        entry.value_at_refresh = value
        entry.width_parameter = width
        entry.refreshed_at = refreshed_at
        entry.shape = shape
        self._windows.pop(key, None)

    def trackers_of(
        self, cache_id: str, table: str, column: str, tids: Sequence[int]
    ) -> list[dict[str, _TrackedBound]]:
        """Every cache's trackers of ``column`` of each of ``tids``, in
        order; raises unless ``cache_id`` tracks every one of them."""
        objects = self._objects
        held = []
        for tid in tids:
            trackers = objects.get((table, tid, column))
            if trackers is None or cache_id not in trackers:
                raise ReplicationProtocolError(
                    f"cache {cache_id!r} is not registered for object "
                    f"{ObjectKey(table, tid, column)}"
                )
            held.append(trackers)
        return held

    def renew(
        self,
        cache_id: str,
        table: str,
        column: str,
        tids: Sequence[int],
        held: list[dict[str, _TrackedBound]],
        values: list[float],
        now: float,
        shape: BoundShape,
        fanout: "CacheGroup | None",
    ) -> tuple[list[float], dict[str, tuple[list[int], list[float]]]]:
        """Refresh one column of many objects: the query-initiated path.

        ``held`` is :meth:`trackers_of` for ``tids``.  Each object's
        tracker for ``cache_id`` takes ``(values[i], W, now, shape)``,
        ``W`` from its policy after one ``on_query_initiated``.  With a
        ``fanout`` group (:class:`~repro.replication.fanout.CacheGroup`)
        every other member cache tracking the object is renewed the same
        way, through its own policy — the *same* sequence of policy calls
        as the requester's, so replicas that subscribed in lockstep stay in
        lockstep, the invariant behind a group's K-cache ≡ 1-cache
        answer equivalence.  A sibling not tracking the object is left
        as it is, policy and tracked bound: the monitor keeps tracking
        the bound the sibling holds, so a later escape still reaches it
        by a value-initiated refresh, and a lost push costs it one
        opportunistic tightening, never containment.  Returns the
        requester's widths and, per sibling, the positions in ``tids``
        it was renewed at and its widths.
        """
        windows = self._windows
        widths: list[float] = []
        pushes: dict[str, tuple[list[int], list[float]]] = {}
        members: dict[str, bool] = {}

        def step(entry: _TrackedBound) -> float:
            policy = entry.policy
            policy.on_query_initiated()
            width = policy.next_width()
            if width < 0:
                raise _width_error(width)
            entry.value_at_refresh = value
            entry.width_parameter = width
            entry.refreshed_at = now
            entry.shape = shape
            return width

        for position, (tid, trackers, value) in enumerate(zip(tids, held, values)):
            widths.append(step(trackers[cache_id]))
            if fanout is not None and len(trackers) > 1:
                for member, entry in trackers.items():
                    if member == cache_id:
                        continue
                    wanted = members.get(member)
                    if wanted is None:
                        wanted = members[member] = member in fanout
                    if wanted:
                        pushed = pushes.get(member)
                        if pushed is None:
                            pushed = pushes[member] = ([], [])
                        pushed[0].append(position)
                        pushed[1].append(step(entry))
            windows.pop((table, tid, column), None)
        return widths, pushes

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
        return self.check_trackers(key, value, now)

    def check_trackers(
        self, key: ObjectKey, value: float, now: float
    ) -> list[tuple[str, _TrackedBound]]:
        """:meth:`violations` past the safe window: every tracker of
        ``key`` is evaluated at ``now``, and the window is renewed when
        none is violated.  A caller that probed the window itself (the
        write path) comes here when the probe did not answer."""
        trackers = self._objects.get(key)
        if trackers is None:
            return []
        out: list[tuple[str, _TrackedBound]] = []
        lo, hi = -math.inf, math.inf
        for cache_id, entry in trackers.items():
            bound_lo, bound_hi = endpoints(
                entry.value_at_refresh, entry.width_parameter,
                entry.refreshed_at, entry.shape, now,
            )
            if not bound_lo <= value <= bound_hi:
                out.append((cache_id, entry))
            else:
                if bound_lo > lo:
                    lo = bound_lo
                if bound_hi < hi:
                    hi = bound_hi
        self.full_checks += 1
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
    ) -> None:
        self.source_id = source_id
        self.clock = clock
        self.shape = shape if shape is not None else SqrtShape()
        self._policy_factory = default_policy_factory or AdaptiveWidthController
        #: Replication fan-out (multi-cache groups): when set, answering
        #: one cache's query-initiated refresh also pushes the fresh master
        #: value to sibling caches tracking the object, so a refresh any
        #: replica pays for tightens bounds group-wide.  ``None`` (the
        #: default) keeps the classic per-cache protocol; a
        #: :class:`~repro.replication.fanout.CacheGroup` installs *itself*
        #: here so pushes reach only its members — caches outside the
        #: group (a standalone pinned cache sharing the source) keep their
        #: own refresh schedules and width-policy state.
        self.refresh_fanout: "CacheGroup | None" = None
        self.fanout_refreshes = 0
        #: Bound by :meth:`attach_telemetry`; ``None`` keeps the refresh
        #: path untelemetered (the simulation default).
        self._t_refresh_seconds = None
        self._tables: dict[str, Table] = {}
        self.monitor = RefreshMonitor()
        self._deliver: dict[str, DeliverFunc] = {}
        # Statistics for experiments.
        self.value_initiated_refreshes = 0
        self.query_initiated_refreshes = 0

    def attach_telemetry(self, registry) -> None:
        """Bind this source's refresh-duration histogram to a registry."""
        self._t_refresh_seconds = registry.histogram(
            "trapp_source_refresh_seconds",
            "Wall-clock duration of answering one query-initiated refresh "
            "request, fan-out included",
            ("source",),
            buckets=SHORT_TIME_BUCKETS,
        ).labels(source=self.source_id)

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
    ) -> BoundFunction:
        """Subscribe a cache to an object; returns its initial bound function.

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
        return bound_function

    # ------------------------------------------------------------------
    # Query-initiated refresh
    # ------------------------------------------------------------------
    def handle_refresh_request(self, request: RefreshRequest) -> Refresh:
        """Answer a cache's query-initiated refresh request synchronously.

        Every bounded column of the requested tuples is read with one
        gather from the master ``ColumnStore`` and validated (each tuple
        held, each value exact, each object tracked for the cache) before
        any tracker moves.  Each object then steps its width policy, and
        the answer carries per column the arrays ``(tids, V, W)`` under
        one ``T_r``; with :attr:`refresh_fanout` set, each sibling gets
        one push reusing them (:meth:`_collect_pushes`).
        """
        started = time.perf_counter()
        now = self.clock()
        cache_id, name, tids = request.cache_id, request.table, request.tids
        table = self.table(name)
        store = table.columns
        slots = store.held_slots(tids)
        gathered = []
        for column in table.schema.bounded_columns:
            lo, hi = store.read_bounds(column.name, slots)
            values = lo.tolist()
            if values != hi.tolist():
                at = int(np.flatnonzero(lo != hi)[0])
                raise TypeError(
                    f"master object {ObjectKey(name, tids[at], column.name)} "
                    f"holds the non-exact bound [{values[at]}, {hi.item(at)}]"
                )
            held = self.monitor.trackers_of(cache_id, name, column.name, tids)
            gathered.append((column.name, lo, values, held))
        shape, fanout = self.shape, self.refresh_fanout
        columns: list[ColumnRefresh] = []
        pushes: dict[str, list[ColumnRefresh]] = {}
        for column, array, values, held in gathered:
            widths, pushed = self.monitor.renew(
                cache_id, name, column, tids, held, values, now, shape, fanout
            )
            columns.append(
                ColumnRefresh(name, column, tids, array, np.array(widths))
            )
            if pushed:
                self._collect_pushes(pushes, columns[-1], widths, pushed)
            self.query_initiated_refreshes += len(tids)
        for sibling, sibling_columns in pushes.items():
            self.fanout_refreshes += sum(len(c.tids) for c in sibling_columns)
            self._send(
                sibling,
                Refresh(
                    self.source_id, RefreshReason.FANOUT, tuple(sibling_columns),
                    now, shape,
                ),
            )
        response = Refresh(
            self.source_id, RefreshReason.QUERY_INITIATED, tuple(columns), now, shape
        )
        if self._t_refresh_seconds is not None:
            self._t_refresh_seconds.observe(time.perf_counter() - started)
        return response

    @staticmethod
    def _collect_pushes(
        pushes: dict[str, list[ColumnRefresh]],
        sent: ColumnRefresh,
        widths: list[float],
        pushed: dict[str, tuple[list[int], list[float]]],
    ) -> None:
        """Add each sibling's share of one answered column to its push.

        A sibling renewed at every object of the column gets the same
        ``tids`` and ``V`` arrays (and the same ``W`` array when its
        policies agree, as a lock-step replica's do); one renewed at a
        subset gets theirs gathered.
        """
        for sibling, (positions, sibling_widths) in pushed.items():
            if len(positions) == len(sent.tids):
                tids, values = sent.tids, sent.values
            else:
                tids = tuple(sent.tids[at] for at in positions)
                values = sent.values[positions]
            pushes.setdefault(sibling, []).append(
                ColumnRefresh(
                    sent.table, sent.column, tids, values,
                    sent.widths if sibling_widths == widths
                    else np.array(sibling_widths),
                )
            )

    # ------------------------------------------------------------------
    # Master updates and value-initiated refresh
    # ------------------------------------------------------------------
    def apply_update(self, key: ObjectKey, new_value: float) -> list[Refresh]:
        """Update a master value, emitting value-initiated refreshes as
        required by the TRAPP contract.

        A value that is not a finite number raises :class:`SchemaError`
        before the master cell or the monitor is touched; any other is
        coerced to a float once, up front.  The monitor's safe window is
        probed first; only a value outside it reads the trackers, and a
        column that is not bounded is refused there with
        :class:`SchemaError` (an EXACT value changes by delete + insert,
        which every cache hears of).  Only then is the cell written,
        through :meth:`Table.update_value`, which checks the rest (column,
        tuple) before anything moves — so a check that raises leaves the
        master as it was.  Each violated tracker is renewed through
        :meth:`RefreshMonitor.update` and its cache sent one one-cell
        refresh.
        """
        value = new_value
        # ``x - x`` is 0.0 for a finite float only (NaN and ±inf give NaN).
        if type(value) is not float or value - value != 0.0:
            value = _finite_master_value(key, new_value)
        table = self._tables.get(key.table)
        if table is None:
            table = self.table(key.table)  # raises
        now = self.clock()
        monitor = self.monitor
        # RefreshMonitor.violations' window probe, without the call.  A
        # window exists only for a tracked object: its column is bounded.
        window = monitor._windows.get(key)
        if (
            window is not None
            and window[2] <= now
            and window[0] <= value <= window[1]
        ):
            table.update_value(key.tid, key.column, value)
            monitor.window_answers += 1
            return []
        if not table.schema[key.column].is_bounded:
            raise SchemaError(
                f"master object {key} is not bounded: no cache tracks it, so "
                "a change to it is a delete + insert"
            )
        violated = monitor.check_trackers(key, value, now)
        table.update_value(key.tid, key.column, value)
        refreshes: list[Refresh] = []
        for cache_id, entry in violated:
            policy = entry.policy
            policy.on_value_initiated()
            width = policy.next_width()
            monitor.update(key, entry, value, width, now, self.shape)
            refresh = Refresh(
                self.source_id,
                RefreshReason.VALUE_INITIATED,
                (ColumnRefresh(key.table, key.column, (key.tid,), (value,), (width,)),),
                now,
                self.shape,
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
