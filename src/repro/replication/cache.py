"""Data caches: bounded replicas plus the query-side refresh glue (§3).

A :class:`DataCache` holds, for each subscribed table, a cached
:class:`~repro.storage.table.Table` whose bounded columns store intervals
evaluated from the current bound functions.  It implements the executor's
``RefreshProvider`` protocol, so
:func:`~repro.core.executor.drive_steps` driving a statement against a
cache performs query-initiated refreshes through the replication protocol.

Time handling: bound functions widen continuously, so the cache
re-evaluates every tracked bound at the current clock reading before a
query runs (:meth:`DataCache.sync_bounds`).  Bound functions are closed
form — ``V ± W·f(T_c − T_r)`` (§3.2, Appendix A) — so the cache keeps
each cached column's ``(V, W, T_r, shape)`` as parallel arrays
(:class:`_BoundColumn`) and the sync is one array evaluation plus one
bulk :meth:`~repro.storage.columnar.ColumnStore.write_bounds` per
column.  The ``ColumnStore`` is the cached table's only copy of its
cells.

Refresh delivery writes the same arrays: an arriving bound function is
installed in its :class:`_BoundColumn` slot and its cell lands in the
store by position — one :meth:`~repro.storage.columnar.ColumnStore.write_cell`
per payload for a small message (a value-initiated push), one
``write_bounds`` per column for a large one (a query-initiated batch or
its fan-out), see :data:`_COLUMN_ROUTE_PAYLOADS`.  Subscription set-up
and cardinality changes write their cells the same two ways, so the
arrays the executor reads and the O(1) exactness counters follow the
replication protocol without a ``Bound`` or a ``Row`` per cell.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

import numpy as np

from repro.bounds.functions import (
    BoundFunction,
    ConstantShape,
    LinearShape,
    SqrtShape,
)
from repro.errors import (
    BoundError,
    ReplicationProtocolError,
    SourceUnavailableError,
    TrappError,
)
from repro.replication.messages import (
    CardinalityChange,
    MasterMigration,
    ObjectKey,
    Refresh,
    RefreshPayload,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.source import DataSource
from repro.storage.catalog import Catalog
from repro.storage.table import Table

__all__ = [
    "DataCache",
    "SourceRefreshReceipt",
    "BatchedRefreshReceipt",
    "RefreshFailure",
    "BatchCostFunc",
]

#: ``(source_id, n_tuples) -> cost`` — how much one batched round trip to a
#: source costs.  The default charges 1 per tuple (the paper's uniform
#: model); schedulers plug in §8.2 amortized models (setup + marginal·k).
BatchCostFunc = Callable[[str, int], float]


#: Array-kernel code of each built-in shape, looked up by the shape's
#: exact type; every other :class:`~repro.bounds.functions.BoundShape`
#: (subclasses included — they may override ``__call__``) is evaluated
#: per cell through the bound function itself.
_SHAPE_CODES = {SqrtShape: 0, LinearShape: 1, ConstantShape: 2}
_CUSTOM_SHAPE = 3

#: Payloads from which a refresh message is applied a column at a time
#: (grouped by :class:`_BoundColumn`, one ``write_bounds`` each) rather
#: than a cell at a time (one ``write_cell`` per payload) — the delivery
#: path's counterpart of ``storage.columnar._REPAIR_FLOOR``.  The column
#: route makes a fixed number of NumPy calls per cached column whatever
#: the message's size (about 30 µs a column), the cell route costs about
#: 2 µs a payload.  ``DataCache._apply_refresh`` alone, hot, on the
#: benchmark's ``cold_scan`` deployment (360-row ``links``, 3 bounded
#: columns, live width/lo/hi orders; p50 of 600 messages, cell loop vs
#: column route): 4 tuples 36 vs 100 µs, 12 tuples 82 vs 119, 16 tuples
#: 89 vs 132, 20 tuples 130 vs 154, 24 tuples 153 vs 163, 28 tuples 174
#: vs 167, 32 tuples 188 vs 171, 36 tuples 227 vs 179, 100 tuples 611 vs
#: 372, 300 tuples 1 840 vs 785 — they cross at about 27 cells a column.
#: A message is one table's tuples times its bounded columns, so the
#: constant counts payloads; narrower tables cross a little earlier and
#: lose nothing worse than the cell loop they had.
_COLUMN_ROUTE_PAYLOADS = 80

#: Sync-duration edges (seconds): a column sweep is tens of microseconds,
#: below the registry's default latency buckets.
_SYNC_TIME_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)


class _BoundColumn:
    """One cached column's bound-function parameters as parallel arrays.

    Slot ``i`` holds one subscription's Appendix-A encoding
    ``(V(T_r), W, T_r)`` and its shape's kernel code, so evaluating the
    whole column at query time is a few array operations.  Slots are
    dense (swap-remove on drop) and private to the cache; the mapping to
    the cached table's ``ColumnStore`` slots is memoized until either
    side's layout moves.
    """

    __slots__ = (
        "table", "column", "n", "tids", "value", "width", "refreshed_at",
        "shape", "layout_version", "_memo",
    )

    def __init__(self, table: str, column: str) -> None:
        self.table = table
        self.column = column
        self.n = 0
        capacity = 16
        self.tids = np.empty(capacity, dtype=np.int64)
        self.value = np.empty(capacity, dtype=np.float64)
        self.width = np.empty(capacity, dtype=np.float64)
        self.refreshed_at = np.empty(capacity, dtype=np.float64)
        self.shape = np.empty(capacity, dtype=np.int8)
        self.layout_version = 0
        #: ``(key, held, slots)`` of the last :meth:`store_slots` answer.
        self._memo: tuple | None = None

    def add(self, tid: int, function: BoundFunction) -> int:
        """Append one subscription; returns its slot."""
        slot = self.n
        if slot == len(self.tids):
            for name in ("tids", "value", "width", "refreshed_at", "shape"):
                old = getattr(self, name)
                setattr(self, name, np.concatenate((old, np.empty_like(old))))
        self.tids[slot] = tid
        self.n = slot + 1
        self.layout_version += 1
        self.install(slot, function)
        return slot

    def install(self, slot: int, function: BoundFunction) -> None:
        """Overwrite one slot's parameters (a refresh arrived)."""
        self.value[slot] = function.value_at_refresh
        self.width[slot] = function.width_parameter
        self.refreshed_at[slot] = function.refreshed_at
        self.shape[slot] = _SHAPE_CODES.get(type(function.shape), _CUSTOM_SHAPE)

    def install_many(
        self, slots: np.ndarray, functions: Collection[BoundFunction]
    ) -> None:
        """Overwrite many distinct slots' parameters, one store per array."""
        self.value[slots] = [f.value_at_refresh for f in functions]
        self.width[slots] = [f.width_parameter for f in functions]
        self.refreshed_at[slots] = [f.refreshed_at for f in functions]
        self.shape[slots] = [
            _SHAPE_CODES.get(type(f.shape), _CUSTOM_SHAPE) for f in functions
        ]

    def drop(self, slot: int) -> int | None:
        """Swap-remove one slot; returns the tid moved into it, if any."""
        last = self.n - 1
        moved = None
        if slot != last:
            for array in (
                self.tids, self.value, self.width, self.refreshed_at, self.shape
            ):
                array[slot] = array[last]
            moved = int(self.tids[slot])
        self.n = last
        self.layout_version += 1
        return moved

    def parameters(self, held: np.ndarray | None = None):
        """``(tids, V, W, T_r, shape codes)`` of all slots, or of ``held``."""
        arrays = (
            self.tids[: self.n],
            self.value[: self.n],
            self.width[: self.n],
            self.refreshed_at[: self.n],
            self.shape[: self.n],
        )
        if held is None:
            return arrays
        return tuple(array[held] for array in arrays)

    def store_slots(self, store) -> tuple[np.ndarray | None, np.ndarray]:
        """``(held, slots)``: where each subscription's cell lives in ``store``.

        ``held`` indexes the subscriptions whose tuple the store still
        holds (``None`` when all are) and ``slots`` gives their store
        slots, aligned with ``parameters(held)``.
        """
        key = (store, store.layout_version, self.layout_version)
        if self._memo is None or self._memo[0] != key:
            slots = store.slots_of(self.tids[: self.n].tolist())
            present = slots >= 0
            if present.all():
                self._memo = (key, None, slots)
            else:
                self._memo = (key, np.flatnonzero(present), slots[present])
        return self._memo[1:]


def _half_widths(
    width: np.ndarray, codes: np.ndarray, elapsed: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """``W · f(elapsed)`` per cell, and where the custom-shape cells are.

    The built-in shapes are mirrored operation for operation, so the
    products are bit-identical to :meth:`BoundFunction.half_width_at`;
    custom-shape cells hold a placeholder the caller overwrites.  As
    silent as float arithmetic: the product may overflow to ∞ (a valid
    half-width) or be ``0 · ∞`` (NaN, for the caller to reject).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        # max(0.0, elapsed) exactly as Python evaluates it (signed zeros, NaN).
        ramp = np.where(elapsed > 0.0, elapsed, 0.0)
        root = np.sqrt(ramp)
        if not codes.any():
            return width * root, []
        step = (elapsed > 0.0).astype(np.float64)
        factors = np.select(
            [codes == 0, codes == 1, codes == 2], [root, ramp, step], 0.0
        )
        return width * factors, np.flatnonzero(codes == _CUSTOM_SHAPE).tolist()


@dataclass(slots=True)
class _Subscription:
    """Where one cached object comes from and its current bound function.

    ``params``/``slot`` locate the write-through copy of the bound
    function's parameters in the column's :class:`_BoundColumn`.
    """

    source: DataSource
    bound_function: BoundFunction
    params: _BoundColumn | None = None
    slot: int = -1


@dataclass(frozen=True, slots=True)
class SourceRefreshReceipt:
    """What one source was asked for in a batched refresh, and its price."""

    source_id: str
    tids: frozenset[int]
    keys: tuple[ObjectKey, ...]
    cost: float


@dataclass(frozen=True, slots=True)
class RefreshFailure:
    """One source that could not serve its part of a batched refresh.

    ``error`` names the exception class (``SourceUnavailableError``, …);
    the tuples stay unrefreshed and keep their current — wider but still
    correct — bounds.
    """

    source_id: str
    tids: frozenset[int]
    error: str


@dataclass(frozen=True, slots=True)
class BatchedRefreshReceipt:
    """Per-source accounting for one externally-batched refresh.

    Returned by :meth:`DataCache.refresh_batched` so schedulers that merge
    many queries' plans can see the cost *actually paid* per source —
    which, under an amortized model, is less than the sum each query would
    have paid alone.  Sources that could not be contacted appear in
    ``failures`` instead of raising: a partial batch is a partial
    success, and the scheduler decides whether to retry, fail over, or
    let the affected queries degrade.
    """

    per_source: tuple[SourceRefreshReceipt, ...]
    failures: tuple[RefreshFailure, ...] = ()

    @property
    def total_cost(self) -> float:
        return sum(receipt.cost for receipt in self.per_source)

    @property
    def tids(self) -> frozenset[int]:
        out: set[int] = set()
        for receipt in self.per_source:
            out |= receipt.tids
        return frozenset(out)

    @property
    def failed_tids(self) -> frozenset[int]:
        out: set[int] = set()
        for failure in self.failures:
            out |= failure.tids
        return frozenset(out)

    @property
    def failed_sources(self) -> tuple[str, ...]:
        return tuple(failure.source_id for failure in self.failures)

    @property
    def requests_sent(self) -> int:
        return len(self.per_source) + len(self.failures)


class DataCache:
    """A cache of bounded replicas that can answer TRAPP/AG queries."""

    def __init__(self, cache_id: str, clock: Callable[[], float] = lambda: 0.0):
        self.cache_id = cache_id
        self.clock = clock
        self.catalog = Catalog()
        self._subscriptions: dict[ObjectKey, _Subscription] = {}
        #: Per-table view of the subscription keys, maintained alongside
        #: ``_subscriptions`` — routers and registries ask per-table
        #: questions on hot paths and must not scan every table's keys.
        self._keys_by_table: dict[str, set[ObjectKey]] = {}
        #: Bound-function parameters per (table, bounded column), written
        #: through wherever a bound function is installed or dropped.
        self._bound_columns: dict[tuple[str, str], _BoundColumn] = {}
        self._sources: dict[str, DataSource] = {}
        #: Cached tables whose tuples are partitioned across shard
        #: sources; cardinality messages for these must keep the shard
        #: map routed.
        self._sharded_tables: set[str] = set()
        #: The :class:`~repro.replication.fanout.CacheGroup` this cache
        #: replicates within, or ``None`` for a standalone cache.  Set by
        #: :meth:`CacheGroup.add_replica`; the cache reports subsequent
        #: subscriptions to it so the group's registry stays current.
        self.group = None
        # Statistics for experiments.
        self.refreshes_received = 0
        self.refresh_requests_sent = 0
        self.fanout_refreshes_received = 0
        #: Refresh messages applied a cell / a column at a time; plain
        #: tallies, pulled at collection time.
        self.cell_route_messages = 0
        self.column_route_messages = 0
        # Event instruments, bound by attach_telemetry(); None keeps the
        # replication hot path untelemetered (the simulation default).
        self._t_fanout_pushes = None
        self._t_fanout_lag = None
        self._t_apply_seconds = None
        self._t_sync_seconds = None
        self._t_sync_rewritten = None
        self._t_sync_unchanged = None

    def attach_telemetry(self, registry) -> None:
        """Bind this cache's event instruments to a metrics registry.

        Fan-out deliveries are *events with a latency* (the push left the
        source at ``sent_at``), so they are observed here rather than
        re-derived by a pull-time collector.
        """
        child_labels = {"cache": self.cache_id}
        self._t_fanout_pushes = registry.counter(
            "trapp_fanout_pushes_total",
            "Fan-out payloads delivered to each replica",
            ("cache",),
        ).labels(**child_labels)
        self._t_fanout_lag = registry.histogram(
            "trapp_fanout_delivery_lag_seconds",
            "Delivery lag of fan-out pushes (receive time minus sent_at)",
            ("cache",),
        ).labels(**child_labels)
        self._t_apply_seconds = registry.histogram(
            "trapp_refresh_apply_seconds",
            "Wall-clock duration of applying one column-route refresh message",
            ("cache",),
            buckets=_SYNC_TIME_BUCKETS,
        ).labels(**child_labels)
        self._t_sync_seconds = registry.histogram(
            "trapp_bound_sync_seconds",
            "Wall-clock duration of each sync_bounds call",
            ("cache",),
            buckets=_SYNC_TIME_BUCKETS,
        ).labels(**child_labels)
        sync_cells = registry.counter(
            "trapp_bound_sync_cells_total",
            "Cached cells re-evaluated by sync_bounds, by outcome",
            ("cache", "outcome"),
        )
        self._t_sync_rewritten = sync_cells.labels(
            outcome="rewritten", **child_labels
        )
        self._t_sync_unchanged = sync_cells.labels(
            outcome="unchanged", **child_labels
        )

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe_table(
        self,
        source: "DataSource | object",
        table_name: str,
        policy_factory: Callable[[], object] | None = None,
    ) -> Table:
        """Replicate an entire master table into this cache.

        ``source`` is a single :class:`DataSource` (the classic 1:1
        table↔source layout) or a
        :class:`~repro.replication.sharding.ShardedSource`, in which case
        every shard's partition is merged into one cached table and the
        tid→shard routing is recorded in the table's
        :class:`~repro.storage.table.ShardMap` — that map is what makes
        :meth:`source_of_tuple` O(1) and lets :meth:`refresh_batched`
        group a merged plan per shard.

        Every bounded column of every row is registered with its owning
        source's refresh monitor; exact/text columns are copied as-is
        (they never change without a cardinality message in this
        architecture).
        """
        if table_name in self.catalog:
            raise ReplicationProtocolError(
                f"cache {self.cache_id!r} already caches table {table_name!r}"
            )
        shards = getattr(source, "shards", None)
        if self.group is not None:
            # Vet the subscription against the group's invariants (fan-out
            # conflicts, replica source-set homogeneity) before touching
            # any state — a rejection must not leave a partial
            # subscription or a stale registry entry behind.
            incoming = (source,) if shards is None else tuple(shards)
            self.group.check_subscription(
                self, table_name, incoming, one_to_one=shards is None
            )
        if shards is None:
            master = source.table(table_name)
            cached = self.catalog.create_table(table_name, master.schema)
            self._subscribe_partition(source, master, cached, policy_factory)
            if self.group is not None:
                self.group._on_subscribe(
                    self, table_name, (source,), one_to_one=True
                )
        else:
            partitions = source.partitions(table_name)
            # Validate disjointness *before* touching any cache state: a
            # mid-subscription failure would otherwise leave a partially
            # replicated table (and live monitor registrations) behind,
            # with no way to resubscribe under the same name.
            owner_of: dict[int, str] = {}
            for shard, partition in partitions:
                for tid in partition.tids():
                    other = owner_of.get(tid)
                    if other is not None:
                        raise ReplicationProtocolError(
                            f"shards {other!r} and {shard.source_id!r} both "
                            f"serve tuple #{tid} of table {table_name!r}; "
                            "shard partitions must be disjoint"
                        )
                    owner_of[tid] = shard.source_id
            cached = self.catalog.create_table(
                table_name, partitions[0][1].schema
            )
            self._sharded_tables.add(table_name)
            for shard, partition in partitions:
                self._subscribe_partition(
                    shard, partition, cached, policy_factory, record_shard=True
                )
            if self.group is not None:
                self.group._on_subscribe(
                    self, table_name, tuple(shard for shard, _ in partitions)
                )
        return cached

    def unsubscribe_all(self) -> None:
        """Tear down every subscription and cached table (detach path).

        Disconnects from every source — which also evicts this cache's
        refresh-monitor trackers, so the per-object cache index holds no
        phantom subscribers — and resets the local catalog, leaving the
        cache object fresh enough to be re-admitted to a group later.
        """
        for source_id in sorted(self._sources):
            self._sources[source_id].disconnect_cache(self.cache_id)
        self._sources.clear()
        self._subscriptions.clear()
        self._keys_by_table.clear()
        self._bound_columns.clear()
        self._sharded_tables.clear()
        self.catalog = Catalog()

    def adopt_snapshot(
        self, donor: "DataCache", batch_cost: BatchCostFunc | None = None
    ) -> BatchedRefreshReceipt:
        """Clone a sibling's cached state instead of cold-resubscribing.

        The late-joiner admission path: every cached table (rows, tids,
        shard routing) is copied from ``donor``, and for each of the
        donor's subscriptions this cache adopts the donor's *exact*
        bound function plus a deep copy of the donor's live width-policy
        state via :meth:`DataSource.adopt_subscription`.  No
        ``register()`` call is made, no refresh request is sent, and the
        source's ``query_initiated_refreshes`` counter does not move —
        the joiner enters the group's policy lockstep mid-sequence,
        which is what keeps K-cache ≡ 1-cache equivalence intact across
        admission.

        Returns a :class:`BatchedRefreshReceipt` pricing the transfer
        per source under ``batch_cost`` (default: 1 per tuple), mirroring
        :meth:`refresh_batched` accounting so schedulers can book the
        snapshot like any other bulk movement of bound state.
        """
        if list(self.catalog.names()) or self._subscriptions:
            raise ReplicationProtocolError(
                f"cache {self.cache_id!r} already holds state; snapshot "
                "admission requires a fresh cache"
            )
        for donor_table in donor.catalog:
            self.catalog.register(donor_table.copy())
        self._sharded_tables |= donor._sharded_tables
        # Connect to every donor source before adopting any subscription,
        # so value-initiated refreshes reach this cache from the first
        # tracked object onward.
        for source_id in sorted(donor._sources):
            source = donor._sources[source_id]
            self._sources[source_id] = source
            source.connect_cache(self.cache_id, self._on_message)
        keys_by_source: dict[str, list[ObjectKey]] = {}
        tids_by_source: dict[str, set[int]] = {}
        for key in sorted(
            donor._subscriptions, key=lambda k: (k.table, k.tid, k.column)
        ):
            subscription = donor._subscriptions[key]
            source = subscription.source
            policy = copy.deepcopy(source.monitor.entry(donor.cache_id, key).policy)
            source.adopt_subscription(
                self.cache_id, key, subscription.bound_function, policy
            )
            self._add_subscription(
                key, _Subscription(source, subscription.bound_function)
            )
            keys_by_source.setdefault(source.source_id, []).append(key)
            tids_by_source.setdefault(source.source_id, set()).add(key.tid)
        receipts = tuple(
            SourceRefreshReceipt(
                source_id=source_id,
                tids=frozenset(tids_by_source[source_id]),
                keys=tuple(keys),
                cost=(
                    batch_cost(source_id, len(tids_by_source[source_id]))
                    if batch_cost is not None
                    else float(len(tids_by_source[source_id]))
                ),
            )
            for source_id, keys in sorted(keys_by_source.items())
        )
        return BatchedRefreshReceipt(per_source=receipts)

    def _add_subscription(self, key: ObjectKey, subscription: _Subscription) -> None:
        params = self._bound_columns.get((key.table, key.column))
        if params is None:
            params = _BoundColumn(key.table, key.column)
            self._bound_columns[key.table, key.column] = params
        subscription.params = params
        subscription.slot = params.add(key.tid, subscription.bound_function)
        self._subscriptions[key] = subscription
        self._keys_by_table.setdefault(key.table, set()).add(key)

    def _drop_subscription(self, key: ObjectKey) -> None:
        subscription = self._subscriptions.pop(key, None)
        if subscription is None:
            return
        self._keys_by_table[key.table].discard(key)
        moved_tid = subscription.params.drop(subscription.slot)
        if moved_tid is not None:
            moved = ObjectKey(key.table, moved_tid, key.column)
            self._subscriptions[moved].slot = subscription.slot

    def subscribed_sources(self) -> "list[DataSource]":
        """Every physical source (shard) this cache subscribes to."""
        return [self._sources[source_id] for source_id in sorted(self._sources)]

    def source_ids_of_table(self, table_name: str) -> frozenset[str]:
        """Source (shard) ids serving one cached table's subscriptions.

        Derived from the live subscription map plus the shard routing, so
        it reflects what the cache can actually refresh; shards that
        currently own no tuples are invisible here (callers comparing
        source sets should compare by subset, not equality).
        """
        ids = {
            self._subscriptions[key].source.source_id
            for key in self._keys_by_table.get(table_name, ())
        }
        if table_name in self.catalog:
            ids.update(self.catalog.table(table_name).shard_map.shards())
        return frozenset(ids)

    def _subscribe_partition(
        self,
        source: DataSource,
        master: Table,
        cached: Table,
        policy_factory: Callable[[], object] | None,
        record_shard: bool = False,
    ) -> None:
        """Replicate one source's rows (a whole table, or one shard)."""
        self._sources.setdefault(source.source_id, source)
        source.connect_cache(self.cache_id, self._on_message)
        bounded = master.schema.bounded_columns
        rows = master.rows()
        for row in rows:
            cached.insert(row.as_dict(), tid=row.tid)  # bounds written below
            if record_shard:
                cached.shard_map.assign(row.tid, source.source_id)
            for column in bounded:
                key = ObjectKey(cached.name, row.tid, column.name)
                policy = policy_factory() if policy_factory is not None else None
                payload = source.register(self.cache_id, key, policy=policy)
                self._add_subscription(
                    key, _Subscription(source, payload.bound_function)
                )
        if rows:
            now = self.clock()
            for column in bounded:
                # Subscriptions are appended: this partition's are the last.
                params = self._bound_columns[cached.name, column.name]
                self._write_slots(
                    params, np.arange(params.n - len(rows), params.n), now
                )

    # ------------------------------------------------------------------
    # Clock synchronization
    # ------------------------------------------------------------------
    def sync_bounds(self) -> None:
        """Re-evaluate every cached bound at the current time.

        Bound functions widen as time passes; queries must see the bound at
        query time, not at last-message time.  Each cached column is one
        array evaluation and one bulk ``ColumnStore.write_bounds``.

        Unchanged bounds are skipped: rewriting a cell with the value it
        already holds would bump the columnar store's version,
        invalidating the planner's epoch-cached sorted orderings — under the service's repeated
        sync-per-query discipline that skip is what lets CHOOSE_REFRESH
        reuse orderings across queries while the clock stands still.
        """
        now = self.clock()
        started = time.perf_counter()
        cells = rewritten = 0
        for params in self._bound_columns.values():
            if not params.n:
                continue
            table = self.catalog.table(params.table)
            # Subscriptions whose tuple the table no longer holds are
            # skipped, unevaluated.
            held, slots = params.store_slots(table.columns)
            lo, hi = self._evaluate_column(params, held, now)
            changed = table.columns.write_bounds(params.column, slots, lo, hi)
            cells += len(slots)
            rewritten += len(changed)
        if self._t_sync_seconds is not None:
            self._t_sync_seconds.observe(time.perf_counter() - started)
            self._t_sync_rewritten.inc(rewritten)
            self._t_sync_unchanged.inc(cells - rewritten)

    def _evaluate_column(
        self, params: _BoundColumn, held: np.ndarray | None, now: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[L(now), H(now)]`` of one column's held subscriptions.

        Bit-identical to :meth:`BoundFunction.at` cell by cell, and
        raising what it raises.
        """
        tids, value, width, refreshed_at, codes = params.parameters(held)
        early = now < refreshed_at - 1e-12
        if early.any():
            at = int(np.flatnonzero(early)[0])
            raise BoundError(
                f"bound evaluated at {now} before its refresh time "
                f"{float(refreshed_at[at])}"
            )
        half, custom = _half_widths(width, codes, now - refreshed_at)
        # V ± half may overflow to ∞ (valid) or be ∞ − ∞ (NaN, rejected below).
        with np.errstate(invalid="ignore", over="ignore"):
            lo, hi = value - half, value + half
        for at in custom:
            key = ObjectKey(params.table, int(tids[at]), params.column)
            lo[at], hi[at] = self._subscriptions[key].bound_function.endpoints_at(now)
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise BoundError("bound endpoints must not be NaN")
        return lo, hi

    def _write_slots(self, params: _BoundColumn, slots: np.ndarray, now: float) -> None:
        """Evaluate ``params``' (distinct) ``slots`` at ``now`` and land
        them in the cached table's store with one bulk write; tuples the
        table no longer holds are dropped."""
        store = self.catalog.table(params.table).columns
        lo, hi = self._evaluate_column(params, slots, now)
        at = store.slots_of(params.tids[slots].tolist())
        present = at >= 0
        if not present.all():
            at, lo, hi = at[present], lo[present], hi[present]
        store.write_bounds(params.column, at, lo, hi)

    # ------------------------------------------------------------------
    # RefreshProvider protocol (query-initiated refreshes)
    # ------------------------------------------------------------------
    def refresh(self, table: Table, tids: Iterable[int]) -> None:
        """Collapse the named tuples' bounds by asking their sources.

        Groups keys per source so each source receives one request (the
        batching extension can then amortize transfer costs).  This is
        the serial protocol path with no scheduler above it to retry or
        degrade, so a partial batch raises
        :class:`~repro.errors.SourceUnavailableError` rather than
        silently leaving some bounds wide.
        """
        receipt = self.refresh_batched(table, tids)
        if receipt.failures:
            failed = ", ".join(sorted(set(receipt.failed_sources)))
            raise SourceUnavailableError(
                f"refresh of table {table.name!r} failed at source(s) {failed}",
                sources=receipt.failed_sources,
            )

    def refresh_batched(
        self,
        table: Table,
        tids: Iterable[int],
        batch_cost: BatchCostFunc | None = None,
    ) -> BatchedRefreshReceipt:
        """Refresh an externally-batched set of tuples, with accounting.

        This is the entry point for cross-query schedulers: ``tids`` may be
        the merged plans of many concurrent queries.  Keys are grouped per
        source — for a sharded table, per *shard* — each source receives
        exactly one :class:`~repro.replication.messages.RefreshRequest`,
        and the returned receipt reports per source which tuples were
        refreshed and the cost actually paid under ``batch_cost``
        (default: 1 per tuple, the uniform model).  Shards none of the
        tuples live on are not contacted and get no receipt, so a
        sharded table's receipt is exactly its per-shard §8.2 accounting.

        A source that refuses its contact — any
        :class:`~repro.errors.TrappError` from
        :meth:`~repro.replication.source.DataSource.handle_refresh_request`
        — becomes a :class:`RefreshFailure` entry on the receipt instead
        of raising, so one dead shard cannot void the rest of the batch.
        """
        tids = sorted(set(tids))
        if not tids:
            return BatchedRefreshReceipt(per_source=())
        by_source: dict[str, list[ObjectKey]] = {}
        tids_by_source: dict[str, set[int]] = {}
        for tid in tids:
            for column in table.schema.bounded_columns:
                key = ObjectKey(table.name, tid, column.name)
                subscription = self._subscriptions.get(key)
                if subscription is None:
                    raise ReplicationProtocolError(
                        f"cache {self.cache_id!r} holds no subscription for {key}"
                    )
                by_source.setdefault(subscription.source.source_id, []).append(key)
                tids_by_source.setdefault(subscription.source.source_id, set()).add(tid)
        receipts: list[SourceRefreshReceipt] = []
        failures: list[RefreshFailure] = []
        for source_id, keys in by_source.items():
            source = self._sources[source_id]
            request = RefreshRequest(cache_id=self.cache_id, keys=tuple(keys))
            self.refresh_requests_sent += 1
            source_tids = frozenset(tids_by_source[source_id])
            try:
                response = source.handle_refresh_request(request)
            except TrappError as exc:
                failures.append(
                    RefreshFailure(
                        source_id=source_id,
                        tids=source_tids,
                        error=type(exc).__name__,
                    )
                )
                continue
            self._apply_refresh(response)
            cost = (
                batch_cost(source_id, len(source_tids))
                if batch_cost is not None
                else float(len(source_tids))
            )
            receipts.append(
                SourceRefreshReceipt(
                    source_id=source_id,
                    tids=source_tids,
                    keys=tuple(keys),
                    cost=cost,
                )
            )
        return BatchedRefreshReceipt(
            per_source=tuple(receipts), failures=tuple(failures)
        )

    def source_of_tuple(self, table: Table, tid: int) -> str:
        """The source (shard) id serving a tuple's bounded columns.

        Used by cross-query schedulers to group refresh candidates per
        shard without reaching into the subscription map.  Sharded
        tables answer from the table's :class:`ShardMap` in O(1); the
        1:1 layout falls back to probing the subscription map.
        """
        shard_id = table.shard_map.get(tid)
        if shard_id is not None:
            return shard_id
        for column in table.schema.bounded_columns:
            subscription = self._subscriptions.get(
                ObjectKey(table.name, tid, column.name)
            )
            if subscription is not None:
                return subscription.source.source_id
        raise ReplicationProtocolError(
            f"cache {self.cache_id!r} holds no subscription for tuple "
            f"#{tid} of table {table.name!r}"
        )

    def sources_of_table(self, table: Table) -> list[str]:
        """Distinct source ids serving a table — its shard fan-in.

        One element for the classic layout, N for a table subscribed
        from an N-shard :class:`~repro.replication.sharding.ShardedSource`
        (only shards that currently own tuples are listed).  Empty for
        an empty unsharded table.
        """
        if table.is_sharded:
            return table.shard_map.shards()
        tids = table.columns.sorted_tids()
        return [self.source_of_tuple(table, int(tids[0]))] if len(tids) else []

    # ------------------------------------------------------------------
    # Incoming messages (value-initiated refreshes, cardinality changes)
    # ------------------------------------------------------------------
    def _on_message(self, cache_id: str, message: object) -> None:
        if isinstance(message, Refresh):
            self._apply_refresh(message)
        elif isinstance(message, CardinalityChange):
            self._apply_cardinality_change(message)
        elif isinstance(message, MasterMigration):
            self._apply_master_migration(message)
        else:  # pragma: no cover - defensive
            raise ReplicationProtocolError(f"unexpected message {message!r}")

    def _apply_refresh(self, refresh: Refresh) -> None:
        """Install a message's bound functions and collapse its cells.

        A message below :data:`_COLUMN_ROUTE_PAYLOADS` (every
        value-initiated push) is applied a cell at a time: subscription
        probe, parameter install, ``endpoints_at``, one ``write_cell``.
        A larger one goes a column at a time.  Either way a payload for
        an object no longer subscribed is dropped, a key named twice
        keeps its last payload, and no ``Bound`` or ``Row`` is touched.
        """
        now = self.clock()
        payloads = refresh.payloads
        if refresh.reason is RefreshReason.FANOUT:
            self.fanout_refreshes_received += len(payloads)
            if self._t_fanout_pushes is not None:
                self._t_fanout_pushes.inc(len(payloads))
                self._t_fanout_lag.observe(max(0.0, now - refresh.sent_at))
        if len(payloads) >= _COLUMN_ROUTE_PAYLOADS:
            self._apply_refresh_columns(payloads, now)
            return
        self.cell_route_messages += 1
        subscriptions = self._subscriptions
        for key, _, function in payloads:
            subscription = subscriptions.get(key)
            if subscription is None:
                # Late message for an object deleted meanwhile; drop it.
                continue
            subscription.bound_function = function
            subscription.params.install(subscription.slot, function)
            # Not a zero-width shortcut: a custom shape need not satisfy
            # f(0) = 0, and the message may have been sent before ``now``.
            lo, hi = function.endpoints_at(now)
            self.catalog.table(key.table).columns.write_cell(
                key.tid, key.column, lo, hi
            )
            self.refreshes_received += 1

    def _apply_refresh_columns(
        self, payloads: tuple[RefreshPayload, ...], now: float
    ) -> None:
        """The column route: one parameter install, one evaluation and one
        ``write_bounds`` per cached column the message touches."""
        started = time.perf_counter()
        subscriptions = self._subscriptions
        # Per column, slot → bound function; a key named twice keeps its
        # last payload (``write_bounds`` needs distinct slots).
        groups: dict[_BoundColumn, dict[int, BoundFunction]] = {}
        for key, _, function in payloads:
            subscription = subscriptions.get(key)
            if subscription is None:
                continue
            subscription.bound_function = function
            group = groups.get(subscription.params)
            if group is None:
                group = groups[subscription.params] = {}
            group[subscription.slot] = function
            self.refreshes_received += 1
        for params, group in groups.items():
            slots = np.fromiter(group, dtype=np.int64, count=len(group))
            params.install_many(slots, group.values())
            self._write_slots(params, slots, now)
        self.column_route_messages += 1
        if self._t_apply_seconds is not None:
            self._t_apply_seconds.observe(time.perf_counter() - started)

    def _apply_cardinality_change(self, change: CardinalityChange) -> None:
        table = self.catalog.table(change.table)
        source = self._sources[change.source_id]
        if change.is_insert:
            assert change.values is not None
            bounded = table.schema.bounded_columns
            table.insert(change.values, tid=change.tid)  # bounds written below
            if change.table in self._sharded_tables:
                table.shard_map.assign(change.tid, change.source_id)
            for column in bounded:
                key = ObjectKey(change.table, change.tid, column.name)
                function = source.register(self.cache_id, key).bound_function
                self._add_subscription(key, _Subscription(source, function))
                lo, hi = function.endpoints_at(self.clock())
                table.columns.write_cell(change.tid, column.name, lo, hi)
        else:
            if change.tid in table:
                table.delete(change.tid)
            for column in table.schema.column_names:
                self._drop_subscription(ObjectKey(change.table, change.tid, column))

    def _apply_master_migration(self, migration: MasterMigration) -> None:
        """Repoint one tuple's subscriptions at its new master shard.

        Bound functions and cached cells are untouched — migration moves
        ownership, not values — so only the shard routing and each
        subscription's source pointer change.
        """
        new_source = self._sources.get(migration.to_source_id)
        if new_source is None:
            raise ReplicationProtocolError(
                f"cache {self.cache_id!r} is not connected to migration "
                f"target {migration.to_source_id!r}"
            )
        table = self.catalog.table(migration.table)
        if migration.table in self._sharded_tables:
            table.shard_map.assign(migration.tid, migration.to_source_id)
        for column in table.schema.column_names:
            subscription = self._subscriptions.get(
                ObjectKey(migration.table, migration.tid, column)
            )
            if subscription is not None:
                subscription.source = new_source

    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def bound_function_of(self, key: ObjectKey) -> BoundFunction:
        subscription = self._subscriptions.get(key)
        if subscription is None:
            raise ReplicationProtocolError(
                f"cache {self.cache_id!r} holds no subscription for {key}"
            )
        return subscription.bound_function
