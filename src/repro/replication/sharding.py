"""Horizontal sharding: one logical table partitioned across N sources.

The paper's §8.2 cost model — ``setup + marginal · k`` per refresh
message — only pays off when one message to a source amortizes its setup
over many tuples, and when the *choice* of which source to contact
matters.  With the 1:1 table↔source layout every cached table had before
sharding, the scheduler's per-source batching always saw exactly one
source per table and the cross-query rebatcher's >1-source branch never
ran.  A :class:`ShardedSource` splits a logical table's tuples across N
real :class:`~repro.replication.source.DataSource` shards (OLAP-style
partitioned physical layout behind one logical relation), so refresh
planning finally has sources to steer between.

A :class:`ShardedSource` is deliberately thin: each shard is a complete,
ordinary ``DataSource`` holding a *partition table* (same name, same
schema, a disjoint subset of the tuple ids), and everything downstream —
subscription, the refresh protocol, the monitor — runs per shard exactly
as it would for an unsharded source.  The wrapper only owns the routing:

* :meth:`add_table` partitions a master table's rows across the shards
  with a pluggable ``partitioner`` (default: round-robin on tuple id);
* :meth:`shard_for` / :meth:`shard_id_of` answer "which shard owns this
  tuple";
* master-side mutations (:meth:`apply_update`, :meth:`insert_row`,
  :meth:`delete_row`) route to the owning shard, with tuple ids
  allocated globally so partitions never collide.

The cache side lives in :meth:`repro.replication.cache.DataCache.subscribe_table`,
which accepts a ``ShardedSource`` wherever a ``DataSource`` fits and
records the tid→shard routing in the cached table's
:class:`~repro.storage.table.ShardMap`.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ReplicationProtocolError
from repro.replication.messages import (
    CardinalityChange,
    MasterMigration,
    ObjectKey,
    Refresh,
)
from repro.replication.source import DataSource
from repro.storage.table import Table

__all__ = [
    "ShardedSource",
    "KeyPartitioner",
    "hash_by_key",
    "range_by_key",
    "round_robin",
]

#: ``(tid, n_shards) -> shard index`` — decides which shard owns a tuple.
#: A :class:`KeyPartitioner` routes on a column value instead of the tid.
Partitioner = Callable[[int, int], int]


def round_robin(tid: int, n_shards: int) -> int:
    """The default partitioner: stripe tuple ids across shards."""
    return tid % n_shards


@dataclass(frozen=True, slots=True)
class KeyPartitioner:
    """A partitioner routing on a *column value* rather than the tuple id.

    ``key_column`` names the attribute read at partition time (table
    loading and inserts); routing of later per-tuple operations (updates,
    deletes, refreshes) always goes through the recorded tid → shard map,
    so the key column may even be mutable without stranding tuples.
    """

    key_column: str
    route_value: Callable[[Any, int], int]

    def __call__(self, value: Any, n_shards: int) -> int:
        return self.route_value(value, n_shards)


def hash_by_key(column: str) -> KeyPartitioner:
    """Hash-partition on a column, stable across processes and runs.

    Uses CRC-32 of the value's text form rather than :func:`hash` —
    Python string hashing is salted per process, and shard layouts must
    be reproducible for benchmarks and for rebuilding a deployment.
    """

    def route(value: Any, n_shards: int) -> int:
        return zlib.crc32(repr(value).encode()) % n_shards

    return KeyPartitioner(column, route)


def range_by_key(column: str, boundaries: Sequence[float]) -> KeyPartitioner:
    """Range-partition on a column: shard ``i`` holds values in
    ``[boundaries[i-1], boundaries[i])`` (half-open, ascending).

    ``boundaries`` are the N−1 split points of an N-shard layout; values
    below the first boundary land on shard 0, values at or above the last
    on shard N−1.
    """
    cuts = tuple(float(b) for b in boundaries)
    if list(cuts) != sorted(set(cuts)):
        raise ReplicationProtocolError(
            f"range partitioner boundaries must be strictly ascending, "
            f"got {list(boundaries)!r}"
        )

    def route(value: Any, n_shards: int) -> int:
        if len(cuts) != n_shards - 1:
            raise ReplicationProtocolError(
                f"range partitioner has {len(cuts)} boundaries; an "
                f"{n_shards}-shard source needs exactly {n_shards - 1}"
            )
        return bisect.bisect_right(cuts, float(value))

    return KeyPartitioner(column, route)


class ShardedSource:
    """N data sources presenting one logical table namespace.

    ``shards`` may be pre-built :class:`DataSource` objects (tests often
    want control over shapes/policies per shard) or constructed for you
    via :meth:`create` / :meth:`TrappSystem.add_source(..., shards=N)
    <repro.replication.system.TrappSystem.add_source>`.
    """

    def __init__(
        self,
        source_id: str,
        shards: Sequence[DataSource],
        partitioner: Partitioner = round_robin,
    ) -> None:
        if not shards:
            raise ReplicationProtocolError(
                f"sharded source {source_id!r} needs at least one shard"
            )
        seen: set[str] = set()
        for shard in shards:
            if shard.source_id in seen:
                raise ReplicationProtocolError(
                    f"sharded source {source_id!r} has duplicate shard id "
                    f"{shard.source_id!r}"
                )
            seen.add(shard.source_id)
        self.source_id = source_id
        self.shards: tuple[DataSource, ...] = tuple(shards)
        self.partitioner = partitioner
        #: ``(table, tid) -> shard index`` — the master-side routing map.
        self._shard_of: dict[tuple[str, int], int] = {}
        self._tables: set[str] = set()
        #: Per-table global tid allocator (shards allocate independently,
        #: so the wrapper must hand out ids itself).
        self._next_tid: dict[str, int] = {}

    @classmethod
    def create(
        cls,
        source_id: str,
        n_shards: int,
        partitioner: Partitioner = round_robin,
        clock: Callable[[], float] = lambda: 0.0,
        **source_kwargs,
    ) -> "ShardedSource":
        """Build N fresh shards named ``<source_id>/<i>``."""
        if n_shards < 1:
            raise ReplicationProtocolError(
                f"sharded source {source_id!r} needs at least one shard, "
                f"got shards={n_shards}"
            )
        shards = [
            DataSource(f"{source_id}/{i}", clock=clock, **source_kwargs)
            for i in range(n_shards)
        ]
        return cls(source_id, shards, partitioner)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[DataSource]:
        return iter(self.shards)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def shard_for(self, table_name: str, tid: int) -> DataSource:
        """The shard owning one tuple's master values."""
        try:
            return self.shards[self._shard_of[(table_name, tid)]]
        except KeyError:
            raise ReplicationProtocolError(
                f"sharded source {self.source_id!r} does not serve tuple "
                f"#{tid} of table {table_name!r}"
            ) from None

    def shard_id_of(self, table_name: str, tid: int) -> str:
        return self.shard_for(table_name, tid).source_id

    def partitions(self, table_name: str) -> list[tuple[DataSource, Table]]:
        """Every shard's partition table, in shard order."""
        if table_name not in self._tables:
            raise ReplicationProtocolError(
                f"sharded source {self.source_id!r} does not serve table "
                f"{table_name!r}"
            )
        return [(shard, shard.table(table_name)) for shard in self.shards]

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> list[Table]:
        """Partition a master table's rows across the shards.

        Each shard receives its own :class:`Table` (same name and
        schema) holding the rows the partitioner routes to it — original
        tuple ids preserved, which is what keeps the cache's merged view
        and the replication protocol's :class:`ObjectKey` space
        consistent.  The input table is left untouched (it is the
        *pre-sharding* master, typically a workload builder's output).
        """
        if table.name in self._tables:
            raise ReplicationProtocolError(
                f"sharded source {self.source_id!r} already serves table "
                f"{table.name!r}"
            )
        partitions = [Table(table.name, table.schema) for _ in self.shards]
        next_tid = 1
        for row in table.rows():
            values = row.as_dict()
            index = self._route(row.tid, values)
            partitions[index].insert(values, tid=row.tid)
            self._shard_of[(table.name, row.tid)] = index
            next_tid = max(next_tid, row.tid + 1)
        for shard, partition in zip(self.shards, partitions):
            shard.add_table(partition)
        self._tables.add(table.name)
        self._next_tid[table.name] = next_tid
        return partitions

    def _route(self, tid: int, values: Mapping[str, Any] | None = None) -> int:
        key_column = getattr(self.partitioner, "key_column", None)
        if key_column is not None:
            if values is None or key_column not in values:
                raise ReplicationProtocolError(
                    f"partitioner for sharded source {self.source_id!r} "
                    f"routes on column {key_column!r}, which the tuple "
                    "being placed does not carry"
                )
            index = self.partitioner(values[key_column], len(self.shards))
        else:
            index = self.partitioner(tid, len(self.shards))
        if not 0 <= index < len(self.shards):
            raise ReplicationProtocolError(
                f"partitioner routed tuple #{tid} to shard {index}, but "
                f"sharded source {self.source_id!r} has {len(self.shards)} shards"
            )
        return index

    # ------------------------------------------------------------------
    # Master-side mutations, routed to the owning shard
    # ------------------------------------------------------------------
    def apply_update(self, key: ObjectKey, new_value: float) -> list[Refresh]:
        """Update one master value on whichever shard owns the tuple."""
        return self.shard_for(key.table, key.tid).apply_update(key, new_value)

    def insert_row(self, table_name: str, values: dict) -> CardinalityChange:
        """Insert a new tuple, allocating a globally unique tuple id.

        Per-shard tables allocate tids independently, so the wrapper
        must pick the id *before* routing — otherwise two shards would
        both hand out #1.
        """
        if table_name not in self._tables:
            raise ReplicationProtocolError(
                f"sharded source {self.source_id!r} does not serve table "
                f"{table_name!r}"
            )
        tid = self._next_tid[table_name]
        index = self._route(tid, values)
        change = self.shards[index].insert_row(table_name, values, tid=tid)
        self._shard_of[(table_name, tid)] = index
        self._next_tid[table_name] = tid + 1
        return change

    def delete_row(self, table_name: str, tid: int) -> CardinalityChange:
        shard = self.shard_for(table_name, tid)
        change = shard.delete_row(table_name, tid)
        del self._shard_of[(table_name, tid)]
        return change

    # ------------------------------------------------------------------
    # Master rebalancing: move a tuple's master between shards
    # ------------------------------------------------------------------
    def migrate_master(
        self, table_name: str, tid: int, to_shard: "int | str"
    ) -> DataSource:
        """Move one tuple's master — and its subscriptions — to a shard.

        Physical placement is a tuning knob, not a schema invariant:
        rebalancing moves the master row, every cache's monitor tracker
        (bound function *and* live width-policy state, via
        :meth:`RefreshMonitor.extract_object` /
        :meth:`~repro.replication.source.RefreshMonitor.adopt_object`),
        and the wrapper's routing entry, then notifies each tracking
        cache with a :class:`~repro.replication.messages.MasterMigration`
        so its subscription map and cached
        :class:`~repro.storage.table.ShardMap` repoint at the new owner.

        The whole move runs synchronously — no awaits — so it is atomic
        with respect to the refresh scheduler's tick: a tick either sees
        the tuple entirely on the old shard or entirely on the new one,
        never a half-moved state.  Bound functions are not re-minted and
        no policy feedback fires, so cached bounds (and the K-cache ≡
        1-cache lockstep) carry across the move unchanged.

        Returns the destination shard.  ``to_shard`` is a shard index or
        a shard id; migrating a tuple onto the shard it already occupies
        is a no-op.
        """
        current = self.shard_for(table_name, tid)
        target = self._resolve_shard(to_shard)
        if target is current:
            return current
        table = current.table(table_name)
        values = table.row(tid).as_dict()
        moved: dict[ObjectKey, dict] = {}
        for column in table.schema.column_names:
            key = ObjectKey(table_name, tid, column)
            entries = current.monitor.extract_object(key)
            if entries:
                moved[key] = entries
        table.delete(tid)
        target.table(table_name).insert(values, tid=tid)
        for key, entries in moved.items():
            target.monitor.adopt_object(key, entries)
        self._shard_of[(table_name, tid)] = self.shards.index(target)
        migration = MasterMigration(
            source_id=current.source_id,
            table=table_name,
            tid=tid,
            to_source_id=target.source_id,
        )
        cache_ids = sorted(
            {cid for entries in moved.values() for cid in entries}
        )
        for cache_id in cache_ids:
            # Subscribing connects a cache to every shard, but keep the
            # destination's channel present even for exotic wirings.
            if (
                cache_id not in target._deliver
                and cache_id in current._deliver
            ):
                target._deliver[cache_id] = current._deliver[cache_id]
            current._send(cache_id, migration)
        return target

    def _resolve_shard(self, shard: "int | str") -> DataSource:
        if isinstance(shard, int):
            if not 0 <= shard < len(self.shards):
                raise ReplicationProtocolError(
                    f"sharded source {self.source_id!r} has no shard "
                    f"index {shard} (0..{len(self.shards) - 1})"
                )
            return self.shards[shard]
        for candidate in self.shards:
            if candidate.source_id == shard:
                return candidate
        raise ReplicationProtocolError(
            f"sharded source {self.source_id!r} has no shard {shard!r}"
        )

    def __repr__(self) -> str:
        return (
            f"ShardedSource({self.source_id!r}, {len(self.shards)} shards, "
            f"tables={self.table_names()!r})"
        )
