"""In-memory tables for the TRAPP storage substrate.

A :class:`Table` is a schema, a name and a
:class:`~repro.storage.columnar.ColumnStore` (exposed as ``.columns``)
that holds every cell once: parallel lo/hi arrays per numeric column,
object arrays for EXACT and TEXT columns, and per-column exactness
counters.  Both the *master* relation at a data source and the *cached*
relation at a data cache are instances of this class; they differ only in
whether bounded cells are exact (master) or intervals (cache).

Every write (:meth:`Table.insert`, :meth:`Table.update_value`,
:meth:`Table.delete`) goes to the store and nothing else;
:meth:`Table.row` and :meth:`Table.rows` build read-only
:class:`~repro.storage.row.Row` records from it when called.  The query
executor reads the arrays only: bounds, classification and CHOOSE_REFRESH
all run over them, and the paper's endpoint indexes (§5.1, §8.3) are the
store's sorted ``endpoint_order``/``width_order`` views.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.core.bound import Bound
from repro.errors import DuplicateKeyError, TrappError
from repro.storage.columnar import ColumnStore
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = ["ShardMap", "Table"]


class ShardMap:
    """tid → shard-id routing for a horizontally partitioned table.

    A logical table whose tuples live on several physical sources keeps
    one of these alongside its column store: every tuple id maps to the id
    of the shard (a :class:`~repro.replication.source.DataSource` in the
    replication layer) that owns its master values.  An empty map means
    the table is unsharded — the 1:1 table↔source layout every PR before
    sharding assumed.

    The map is plain routing state, deliberately ignorant of what a
    shard *is*: storage stays below the replication layer, which is what
    lets the cache, the refresh scheduler, and the benchmarks all share
    this one structure.
    """

    __slots__ = ("_shard_of", "_tids_by_shard")

    def __init__(self) -> None:
        self._shard_of: dict[int, str] = {}
        self._tids_by_shard: dict[str, set[int]] = {}

    def __len__(self) -> int:
        return len(self._shard_of)

    def __bool__(self) -> bool:
        return bool(self._shard_of)

    def __contains__(self, tid: object) -> bool:
        return tid in self._shard_of

    def assign(self, tid: int, shard_id: str) -> None:
        """Route one tuple to a shard (reassignment allowed: rebalancing)."""
        previous = self._shard_of.get(tid)
        if previous is not None:
            self._tids_by_shard[previous].discard(tid)
        self._shard_of[tid] = shard_id
        self._tids_by_shard.setdefault(shard_id, set()).add(tid)

    def forget(self, tid: int) -> None:
        """Drop a tuple's routing entry (no-op when absent)."""
        shard_id = self._shard_of.pop(tid, None)
        if shard_id is not None:
            self._tids_by_shard[shard_id].discard(tid)

    def shard_of(self, tid: int) -> str:
        try:
            return self._shard_of[tid]
        except KeyError:
            raise TrappError(f"no shard routes tuple #{tid}") from None

    def get(self, tid: int, default: str | None = None) -> str | None:
        return self._shard_of.get(tid, default)

    def shards(self) -> list[str]:
        """All shard ids with at least one routed tuple, sorted."""
        return sorted(s for s, tids in self._tids_by_shard.items() if tids)

    def tids_of(self, shard_id: str) -> frozenset[int]:
        """Tuples routed to one shard (empty for unknown shards)."""
        return frozenset(self._tids_by_shard.get(shard_id, ()))


class Table:
    """Tuples conforming to a schema, stored in one :class:`ColumnStore`."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._next_tid = 1
        #: The only copy of every cell; what the query executor reads.
        self.columns = ColumnStore(schema)
        #: tid → owning-shard routing for horizontally partitioned tables;
        #: empty for the classic one-source layout.
        self.shard_map = ShardMap()

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __contains__(self, tid: object) -> bool:
        return tid in self.columns

    def row(self, tid: int) -> Row:
        """A read-only record of one tuple, built from the store."""
        if tid not in self.columns:
            raise TrappError(f"table {self.name!r} has no tuple #{tid}")
        return Row(tid, self.columns.values(tid))

    def rows(self) -> list[Row]:
        """Read-only records of all tuples, in tid order."""
        names = self.schema.column_names
        cells = [self.columns.column_values(name) for name in names]
        return [
            Row(tid, dict(zip(names, values)))
            for tid, *values in zip(self.tids(), *cells)
        ]

    def tids(self) -> list[int]:
        return self.columns.sorted_tids().tolist()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: Mapping[str, Any], tid: int | None = None) -> Row:
        """Insert a tuple, validating against the schema; returns its row.

        Explicit ``tid`` lets callers mirror a master table's tuple ids in a
        cache (the replication layer relies on shared ids).
        """
        self.schema.validate_values(values)
        if tid is None:
            tid = self._next_tid
        if tid in self.columns:
            raise DuplicateKeyError(f"table {self.name!r} already has tuple #{tid}")
        self._next_tid = max(self._next_tid, tid + 1)
        self.columns.append(tid, values)
        return Row(tid, self.columns.values(tid))

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[Row]:
        return [self.insert(values) for values in rows]

    def delete(self, tid: int) -> None:
        if tid not in self.columns:
            raise TrappError(f"table {self.name!r} has no tuple #{tid}")
        self.columns.remove(tid)
        self.shard_map.forget(tid)

    def update_value(self, tid: int, column: str, value: Any) -> None:
        """Overwrite one cell after validating it against the schema."""
        self.schema[column].validate(value)
        if tid not in self.columns:
            raise TrappError(f"table {self.name!r} has no tuple #{tid}")
        self.columns.set(tid, column, value)

    def clear(self) -> None:
        for tid in self.tids():
            self.delete(tid)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def is_sharded(self) -> bool:
        """True when tuples carry shard routing (a partitioned table)."""
        return bool(self.shard_map)

    def column_exact(self, column: str) -> bool:
        """True when every current value of ``column`` is exactly known.

        O(1) via the columnar store's dirty counters.
        """
        return self.columns.column_exact(column)

    def column_bounds(self, column: str) -> dict[int, Bound]:
        """Map tuple id to the column's value as a bound."""
        return {row.tid: row.bound(column) for row in self.rows()}

    def copy(self, name: str | None = None) -> "Table":
        """A deep copy (cells and shard routing copied)."""
        clone = Table(name or self.name, self.schema)
        for row in self.rows():
            clone.insert(row.as_dict(), tid=row.tid)
            shard_id = self.shard_map.get(row.tid)
            if shard_id is not None:
                clone.shard_map.assign(row.tid, shard_id)
        return clone

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, schema={self.schema!r})"
