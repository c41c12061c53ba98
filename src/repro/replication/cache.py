"""Data caches: bounded replicas plus the query-side refresh glue (§3).

A :class:`DataCache` holds, for each subscribed table, a cached
:class:`~repro.storage.table.Table` whose bounded columns store intervals
evaluated from the current bound functions.  It implements the executor's
``RefreshProvider`` protocol, so
:func:`~repro.core.executor.drive_steps` driving a statement against a
cache performs query-initiated refreshes through the replication protocol.

Time handling: bound functions widen continuously, so the cache
re-evaluates the tracked bounds a query reads at the current clock
reading before it runs (:meth:`DataCache.sync_bounds`).  Bound functions are closed
form — ``V ± W·f(T_c − T_r)`` (§3.2, Appendix A) — so the cache keeps
each cached column's ``(V, W, T_r, shape)`` as parallel arrays
(:class:`_BoundColumn`) and the sync is one array evaluation plus one
bulk :meth:`~repro.storage.columnar.ColumnStore.write_bounds` per
column.  The ``ColumnStore`` is the cached table's only copy of its
cells.

Refresh delivery writes the same arrays.  A message arrives a column at
a time — per column the arrays ``(tids, V, W)``, one ``T_r`` and one
shape for the whole message — and lands by position: one store per
:class:`_BoundColumn` array and one
:meth:`~repro.storage.columnar.ColumnStore.write_bounds` per column for
a large message (a query-initiated batch or its fan-out), one
:meth:`~repro.storage.columnar.ColumnStore.write_cell` per object for a
small one (a value-initiated push), see :data:`_COLUMN_ROUTE_PAYLOADS`.
Subscription set-up and cardinality changes write their cells the same
two ways, so the arrays the executor reads and the O(1) exactness
counters follow the replication protocol without a ``Bound``, a
``BoundFunction`` or a ``Row`` per cell.  The arrays are the cache's only
copy of its bound functions; :meth:`DataCache.bound_function_of` builds
one on demand.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.bounds.functions import (
    BoundFunction,
    BoundShape,
    ConstantShape,
    LinearShape,
    SqrtShape,
    endpoints,
)
from repro.errors import (
    BoundError,
    ReplicationProtocolError,
    SourceUnavailableError,
    TrappError,
)
from repro.extensions.batching import UNIFORM_PRICE, BatchedCostModel
from repro.replication.messages import (
    CardinalityChange,
    MasterMigration,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.source import DataSource
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.telemetry.registry import SHORT_TIME_BUCKETS

__all__ = [
    "DataCache",
    "SourceRefreshReceipt",
    "BatchedRefreshReceipt",
    "RefreshFailure",
]


#: Array-kernel code of each built-in shape, looked up by the shape's
#: exact type; every other :class:`~repro.bounds.functions.BoundShape`
#: (subclasses included — they may override ``__call__``) is evaluated
#: per cell with the shape object :attr:`_BoundColumn.custom` keeps.
_SHAPE_CODES = {SqrtShape: 0, LinearShape: 1, ConstantShape: 2}
_CUSTOM_SHAPE = 3
#: The shape a built-in code stands for, when a bound function is rebuilt.
_BUILTIN_SHAPES = {0: SqrtShape(), 1: LinearShape(), 2: ConstantShape()}

#: Objects (cells) from which a refresh message is applied a column at a
#: time (one store per :class:`_BoundColumn` array and one
#: ``write_bounds`` per column it names) rather than an object at a time
#: (one ``write_cell`` each) — the delivery path's counterpart of
#: ``storage.columnar._REPAIR_FLOOR``.  The column route makes a fixed
#: number of NumPy calls per column whatever the message's size, the cell
#: route a fixed amount of Python per object, so neither wins at every
#: size the workloads send: value-initiated pushes are one object, and
#: ``mixed_classes`` sends one-tuple rounds beside 30-tuple batches.
#: ``DataCache._apply_refresh`` alone, on columnar messages as a source
#: answers them (the benchmark's ``cold_scan`` deployment: 360-row
#: ``links``, 3 bounded columns, live width/lo/hi orders; p50 of 150
#: first applications, cell vs column route, a slow 2-core host): 1 tuple
#: 25 vs 107 µs, 4 tuples 58 vs 116, 8 tuples 99 vs 128, 12 tuples 140
#: vs 120, 24 tuples 266 vs 135, 34 tuples 361 vs 139; ``write_storm``'s
#: 4-shard deployment crosses at the same size.  They cross at about 10
#: tuples of 3 columns, so the constant counts objects.
_COLUMN_ROUTE_PAYLOADS = 30


class _BoundColumn:
    """One cached column's bound-function parameters as parallel arrays.

    Slot ``i`` holds one subscription's Appendix-A encoding
    ``(V(T_r), W, T_r)`` and its shape's kernel code, so evaluating the
    whole column at query time is a few array operations.  Slots are
    dense (swap-remove on drop) and private to the cache; ``slot_of``
    maps a tuple id to its slot, ``custom`` a tuple id to its shape when
    the code says custom, and the mapping to the cached table's
    ``ColumnStore`` slots is memoized until either side's layout moves.
    """

    __slots__ = (
        "table", "column", "n", "tids", "value", "width", "refreshed_at",
        "shape", "slot_of", "custom", "layout_version", "_memo",
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
        self.slot_of: dict[int, int] = {}
        self.custom: dict[int, BoundShape] = {}
        self.layout_version = 0
        #: ``(key, held, slots)`` of the last :meth:`store_slots` answer.
        self._memo: tuple | None = None

    def add(self, tid: int, function: BoundFunction) -> None:
        """Append one subscription."""
        slot = self.n
        if slot == len(self.tids):
            for name in ("tids", "value", "width", "refreshed_at", "shape"):
                old = getattr(self, name)
                setattr(self, name, np.concatenate((old, np.empty_like(old))))
        self.tids[slot] = tid
        self.slot_of[tid] = slot
        self.n = slot + 1
        self.layout_version += 1
        self.install(
            slot, tid, function.value_at_refresh, function.width_parameter,
            function.refreshed_at, function.shape,
            _SHAPE_CODES.get(type(function.shape), _CUSTOM_SHAPE),
        )

    def install(
        self, slot: int, tid: int, value: float, width: float,
        refreshed_at: float, shape: BoundShape, code: int,
    ) -> None:
        """Overwrite one slot's parameters (a refresh arrived); ``code``
        is ``shape``'s kernel code."""
        self.value[slot] = value
        self.width[slot] = width
        self.refreshed_at[slot] = refreshed_at
        self.shape[slot] = code
        if code == _CUSTOM_SHAPE:
            self.custom[tid] = shape
        elif self.custom:
            self.custom.pop(tid, None)

    def install_many(
        self, slots: np.ndarray, tids: Sequence[int], values: np.ndarray,
        widths: np.ndarray, refreshed_at: float, shape: BoundShape,
    ) -> None:
        """Overwrite many distinct slots' parameters, one store per array."""
        self.value[slots] = values
        self.width[slots] = widths
        self.refreshed_at[slots] = refreshed_at
        code = _SHAPE_CODES.get(type(shape), _CUSTOM_SHAPE)
        self.shape[slots] = code
        if code == _CUSTOM_SHAPE:
            self.custom.update(dict.fromkeys(tids, shape))
        elif self.custom:
            for tid in tids:
                self.custom.pop(tid, None)

    def drop(self, tid: int) -> None:
        """Swap-remove one tuple's slot (nothing when it has none)."""
        slot = self.slot_of.pop(tid, None)
        if slot is None:
            return
        self.custom.pop(tid, None)
        last = self.n - 1
        if slot != last:
            for array in (
                self.tids, self.value, self.width, self.refreshed_at, self.shape
            ):
                array[slot] = array[last]
            self.slot_of[int(self.tids[slot])] = slot
        self.n = last
        self.layout_version += 1

    def function(self, slot: int) -> BoundFunction:
        """One slot's bound function, built on demand."""
        code = int(self.shape[slot])
        return BoundFunction(
            self.value.item(slot),
            self.width.item(slot),
            self.refreshed_at.item(slot),
            self.custom[self.tids.item(slot)]
            if code == _CUSTOM_SHAPE
            else _BUILTIN_SHAPES[code],
        )

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
        if not np.count_nonzero(codes):
            return width * root, []
        step = (elapsed > 0.0).astype(np.float64)
        factors = np.select(
            [codes == 0, codes == 1, codes == 2], [root, ramp, step], 0.0
        )
        return width * factors, np.flatnonzero(codes == _CUSTOM_SHAPE).tolist()


@dataclass(frozen=True, slots=True)
class SourceRefreshReceipt:
    """What one source was asked for in a batched refresh, and its price."""

    source_id: str
    tids: frozenset[int]
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
        #: Bound-function parameters per (table, bounded column): the
        #: cache's only copy of its subscriptions' bound functions.
        self._bound_columns: dict[tuple[str, str], _BoundColumn] = {}
        #: Per table, the source (shard) each subscribed tuple's bounded
        #: columns come from — what a refresh is grouped by.
        self._owners: dict[str, dict[int, DataSource]] = {}
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
            buckets=SHORT_TIME_BUCKETS,
        ).labels(**child_labels)
        self._t_sync_seconds = registry.histogram(
            "trapp_bound_sync_seconds",
            "Wall-clock duration of each sync_bounds call",
            ("cache",),
            buckets=SHORT_TIME_BUCKETS,
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
            self._subscribe_partition(source, master, cached)
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
                    shard, partition, cached, record_shard=True
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
        self._owners.clear()
        self._bound_columns.clear()
        self._sharded_tables.clear()
        self.catalog = Catalog()

    def adopt_snapshot(
        self, donor: "DataCache", price: BatchedCostModel = UNIFORM_PRICE
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
        per source under ``price`` (default: 1 per tuple), mirroring
        :meth:`refresh_batched` accounting so schedulers can book the
        snapshot like any other bulk movement of bound state.
        """
        if list(self.catalog.names()) or self._bound_columns:
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
        tids_by_source: dict[str, set[int]] = {}
        for key in donor.subscribed_keys():
            source = donor._owners[key.table][key.tid]
            function = donor.bound_function_of(key)
            policy = copy.deepcopy(source.monitor.entry(donor.cache_id, key).policy)
            source.adopt_subscription(self.cache_id, key, function, policy)
            self._add_subscription(key, source, function)
            tids_by_source.setdefault(source.source_id, set()).add(key.tid)
        receipts = tuple(
            SourceRefreshReceipt(
                source_id=source_id,
                tids=frozenset(tids),
                cost=price.batch_cost(source_id, len(tids)),
            )
            for source_id, tids in sorted(tids_by_source.items())
        )
        return BatchedRefreshReceipt(per_source=receipts)

    def _add_subscription(
        self, key: ObjectKey, source: DataSource, function: BoundFunction
    ) -> None:
        params = self._bound_columns.get((key.table, key.column))
        if params is None:
            params = _BoundColumn(key.table, key.column)
            self._bound_columns[key.table, key.column] = params
        params.add(key.tid, function)
        self._owners.setdefault(key.table, {})[key.tid] = source

    def _drop_tuple(self, table: Table, tid: int) -> None:
        """Drop every subscription of one tuple (it left the master)."""
        for column in table.schema.bounded_columns:
            params = self._bound_columns.get((table.name, column.name))
            if params is not None:
                params.drop(tid)
        self._owners.get(table.name, {}).pop(tid, None)

    def subscribed_keys(self, table_name: str | None = None) -> list[ObjectKey]:
        """Every subscribed object (of one table), in key order."""
        return sorted(
            ObjectKey(params.table, tid, params.column)
            for params in self._bound_columns.values()
            if table_name is None or params.table == table_name
            for tid in params.slot_of
        )

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
            source.source_id
            for source in self._owners.get(table_name, {}).values()
        }
        if table_name in self.catalog:
            ids.update(self.catalog.table(table_name).shard_map.shards())
        return frozenset(ids)

    def _subscribe_partition(
        self,
        source: DataSource,
        master: Table,
        cached: Table,
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
                self._add_subscription(
                    key, source, source.register(self.cache_id, key)
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
    def sync_bounds(
        self, columns: Iterable[tuple[str, str]] | None = None
    ) -> None:
        """Re-evaluate cached bounds at the current time.

        Bound functions widen as time passes; queries must see the bound at
        query time, not at last-message time.  ``columns`` names the
        ``(table, column)`` pairs to bring up to the clock — a compiled
        plan's ``columns_read``, so an execution syncs only what it reads;
        exact or unknown pairs are skipped.  ``None`` syncs every cached
        column.  A column is evaluated from its bound functions alone, so
        a scoped sync writes, bit for bit, what a full sync at the same
        reading writes to that column; the others keep their endpoints as
        last written until a sync that names them.  Each column is one
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
        if columns is None:
            synced = self._bound_columns.values()
        else:
            bound_columns = self._bound_columns
            synced = [
                bound_columns[key] for key in columns if key in bound_columns
            ]
        for params in synced:
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
        # ``count_nonzero`` rather than ``.any()`` throughout: one C call,
        # where ``.any()`` dispatches through Python (a column is synced
        # on every execution that reads it).
        tids, value, width, refreshed_at, codes = params.parameters(held)
        early = now < refreshed_at - 1e-12
        if np.count_nonzero(early):
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
            lo[at], hi[at] = endpoints(
                value.item(at), width.item(at), refreshed_at.item(at),
                params.custom[tids.item(at)], now,
            )
        if np.count_nonzero(np.isnan(lo)) or np.count_nonzero(np.isnan(hi)):
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
        price: BatchedCostModel = UNIFORM_PRICE,
    ) -> BatchedRefreshReceipt:
        """Refresh an externally-batched set of tuples, with accounting.

        This is the entry point for cross-query schedulers: ``tids`` may be
        the merged plans of many concurrent queries.  Keys are grouped per
        source — for a sharded table, per *shard* — each source receives
        exactly one :class:`~repro.replication.messages.RefreshRequest`,
        and the returned receipt reports per source which tuples were
        refreshed and the cost actually paid under ``price`` (default:
        1 per tuple, the uniform model).  Shards none of the
        tuples live on are not contacted and get no receipt, so a
        sharded table's receipt is exactly its per-shard §8.2 accounting.

        A source that refuses its contact — any
        :class:`~repro.errors.TrappError` from
        :meth:`~repro.replication.source.DataSource.handle_refresh_request`
        — becomes a :class:`RefreshFailure` entry on the receipt instead
        of raising, so one dead shard cannot void the rest of the batch.
        """
        tids = sorted(set(tids))
        bounded = table.schema.bounded_columns
        if not tids or not bounded:
            return BatchedRefreshReceipt(per_source=())
        owners = self._owners.get(table.name, {})
        by_source: dict[DataSource, list[int]] = {}
        for tid in tids:
            source = owners.get(tid)
            if source is None:
                raise ReplicationProtocolError(
                    f"cache {self.cache_id!r} holds no subscription for "
                    f"{ObjectKey(table.name, tid, bounded[0].name)}"
                )
            group = by_source.get(source)
            if group is None:
                group = by_source[source] = []
            group.append(tid)
        receipts: list[SourceRefreshReceipt] = []
        failures: list[RefreshFailure] = []
        for source, group in by_source.items():
            request = RefreshRequest(self.cache_id, table.name, tuple(group))
            self.refresh_requests_sent += 1
            try:
                response = source.handle_refresh_request(request)
            except TrappError as exc:
                failures.append(
                    RefreshFailure(
                        source_id=source.source_id,
                        tids=frozenset(group),
                        error=type(exc).__name__,
                    )
                )
                continue
            self._apply_refresh(response)
            receipts.append(
                SourceRefreshReceipt(
                    source_id=source.source_id,
                    tids=frozenset(group),
                    cost=price.batch_cost(source.source_id, len(group)),
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
        source = self._owners.get(table.name, {}).get(tid)
        if source is not None:
            return source.source_id
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

        A message of fewer than :data:`_COLUMN_ROUTE_PAYLOADS` objects
        (every value-initiated push) is applied an object at a time:
        slot lookup, parameter install, :func:`endpoints`, one
        ``write_cell``.  A larger one goes a column at a time.  Either
        way an object no longer subscribed is dropped, a tuple named
        twice in a column keeps its last entry, and no ``Bound``,
        ``BoundFunction`` or ``Row`` is built.
        """
        now = self.clock()
        columns = refresh.columns
        n_objects = sum([len(column.tids) for column in columns])
        if refresh.reason is RefreshReason.FANOUT:
            self.fanout_refreshes_received += n_objects
            if self._t_fanout_pushes is not None:
                self._t_fanout_pushes.inc(n_objects)
                self._t_fanout_lag.observe(max(0.0, now - refresh.refreshed_at))
        if n_objects >= _COLUMN_ROUTE_PAYLOADS:
            self._apply_refresh_columns(refresh, now)
            return
        self.cell_route_messages += 1
        refreshed_at, shape = refresh.refreshed_at, refresh.shape
        code = _SHAPE_CODES.get(type(shape), _CUSTOM_SHAPE)
        for table_name, column, tids, values, widths in columns:
            params = self._bound_columns.get((table_name, column))
            if params is None:
                continue
            store = self.catalog.table(table_name).columns
            slot_of = params.slot_of
            if isinstance(values, np.ndarray):
                values, widths = values.tolist(), widths.tolist()
            for tid, value, width in zip(tids, values, widths):
                slot = slot_of.get(tid)
                if slot is None:
                    # Late message for an object deleted meanwhile; drop it.
                    continue
                params.install(slot, tid, value, width, refreshed_at, shape, code)
                # Not a zero-width shortcut: a custom shape need not satisfy
                # f(0) = 0, and the message may have been sent before ``now``.
                lo, hi = endpoints(value, width, refreshed_at, shape, now)
                store.write_cell(tid, column, lo, hi)
                self.refreshes_received += 1

    def _apply_refresh_columns(self, refresh: Refresh, now: float) -> None:
        """The column route: per column the message names, one evaluation,
        one store per parameter array and one ``write_bounds``.

        Every object of a message shares ``T_r`` and the shape, so the
        shape is called once per column and ``W · f`` is one product —
        bit-identical to :func:`endpoints` cell by cell.  A column is
        checked whole before anything of it is written; a bad object
        raises what :func:`endpoints` raises for it.
        """
        started = time.perf_counter()
        refreshed_at, shape = refresh.refreshed_at, refresh.shape
        for table_name, column, tids, values, widths in refresh.columns:
            params = self._bound_columns.get((table_name, column))
            if params is None:
                continue
            values = np.asarray(values, dtype=np.float64)
            widths = np.asarray(widths, dtype=np.float64)
            slots = np.fromiter(
                map(params.slot_of.get, tids, repeat(-1)),
                dtype=np.int64, count=len(tids),
            )
            present = slots >= 0
            received = int(np.count_nonzero(present))
            if not received:
                continue
            keep = None
            if len(set(tids)) < len(tids):
                # A tuple named twice keeps its last entry.
                keep = sorted({tid: at for at, tid in enumerate(tids)}.values())
            if received < len(tids):
                keep = [at for at in (keep or range(len(tids))) if present[at]]
            if keep is not None:
                tids = [tids[at] for at in keep]
                slots, values, widths = slots[keep], values[keep], widths[keep]
            lo, hi = self._evaluate_message(values, widths, refreshed_at, shape, now)
            params.install_many(slots, tids, values, widths, refreshed_at, shape)
            self.refreshes_received += received
            store = self.catalog.table(table_name).columns
            held, in_store = params.store_slots(store)
            if held is None:
                at = in_store[slots]
            else:
                at = store.slots_of(tids)
                evicted = at < 0
                if evicted.any():
                    at, lo, hi = at[~evicted], lo[~evicted], hi[~evicted]
            store.write_bounds(column, at, lo, hi)
        self.column_route_messages += 1
        if self._t_apply_seconds is not None:
            self._t_apply_seconds.observe(time.perf_counter() - started)

    @staticmethod
    def _evaluate_message(
        values: np.ndarray, widths: np.ndarray, refreshed_at: float,
        shape: BoundShape, now: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[L(now), H(now)]`` of one message column's objects."""
        if now < refreshed_at - 1e-12:
            endpoints(values.item(0), widths.item(0), refreshed_at, shape, now)
        factor = shape(now - refreshed_at)
        # 0 · ∞ and ∞ − ∞ are NaN, for the check below to reject.
        with np.errstate(invalid="ignore", over="ignore"):
            half = widths * factor
            lo, hi = values - half, values + half
            good = (half >= 0) & (lo <= hi)
        if not good.all():
            at = int(np.flatnonzero(~good)[0])
            endpoints(values.item(at), widths.item(at), refreshed_at, shape, now)
        return lo, hi

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
                function = source.register(self.cache_id, key)
                self._add_subscription(key, source, function)
                lo, hi = function.endpoints_at(self.clock())
                table.columns.write_cell(change.tid, column.name, lo, hi)
        else:
            if change.tid in table:
                table.delete(change.tid)
            self._drop_tuple(table, change.tid)

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
        owners = self._owners.get(migration.table, {})
        if migration.tid in owners:
            owners[migration.tid] = new_source

    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def bound_function_of(self, key: ObjectKey) -> BoundFunction:
        """The bound function the cache holds for one object, built from
        its column's parameter arrays."""
        params = self._bound_columns.get((key.table, key.column))
        slot = None if params is None else params.slot_of.get(key.tid)
        if slot is None:
            raise ReplicationProtocolError(
                f"cache {self.cache_id!r} holds no subscription for {key}"
            )
        return params.function(slot)
