"""Snapshot reads for query-time consistency (paper §8.4).

The base architecture assumes no value-initiated refresh lands while a
query executes; otherwise the answer could mix data from different
moments, or a CHOOSE_REFRESH plan computed against one state could be
applied to another.  §8.4's suggested fix is multiversion concurrency
control: "permit refreshes to occur at any time, while still allowing each
in-progress query to read data that was current when the query started."

:class:`VersionedTable` implements the minimal multiversion store that
supports this: every cell update appends a ``(version, value)`` record,
:meth:`snapshot` captures the current version, and a
:class:`SnapshotView` resolves reads against that version while the live
table keeps moving.  Old versions are garbage-collected once no snapshot
can reach them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import TrappError
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["VersionedTable", "SnapshotView"]


@dataclass(slots=True)
class _CellHistory:
    """Version-stamped values of one cell, oldest first."""

    versions: list[int] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)

    def record(self, version: int, value: Any) -> None:
        self.versions.append(version)
        self.values.append(value)

    def value_at(self, version: int) -> Any:
        """The newest value with version <= the requested one."""
        import bisect

        index = bisect.bisect_right(self.versions, version) - 1
        if index < 0:
            raise TrappError(f"no value recorded at or before version {version}")
        return self.values[index]

    def prune_before(self, version: int) -> None:
        """Drop history no snapshot at >= version can reach."""
        import bisect

        keep_from = max(0, bisect.bisect_right(self.versions, version) - 1)
        if keep_from:
            del self.versions[:keep_from]
            del self.values[:keep_from]


class VersionedTable:
    """A table whose updates are versioned, supporting snapshot reads.

    Wraps an ordinary :class:`Table` (the "live" state used by refresh
    bookkeeping) and mirrors every update into per-cell histories.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.live = Table(name, schema)
        self._history: dict[tuple[int, str], _CellHistory] = {}
        self._membership: dict[int, list[tuple[int, bool]]] = {}
        self._version = 0
        self._open_snapshots: list[int] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    def insert(self, values: Mapping[str, Any], tid: int | None = None) -> Row:
        self._version += 1
        row = self.live.insert(values, tid=tid)
        self._membership.setdefault(row.tid, []).append((self._version, True))
        # Record each cell as the live table reads it back, so a snapshot
        # taken now reads exactly like ``live.row``.
        for column, value in row.items():
            history = self._history.setdefault((row.tid, column), _CellHistory())
            history.record(self._version, value)
        return row

    def delete(self, tid: int) -> None:
        self._version += 1
        self.live.delete(tid)
        self._membership.setdefault(tid, []).append((self._version, False))

    def update_value(self, tid: int, column: str, value: Any) -> None:
        self._version += 1
        self.live.update_value(tid, column, value)
        history = self._history.setdefault((tid, column), _CellHistory())
        history.record(self._version, self.live.row(tid)[column])

    # ------------------------------------------------------------------
    def snapshot(self) -> "SnapshotView":
        """A consistent read view of the current version."""
        snap = SnapshotView(self, self._version)
        self._open_snapshots.append(self._version)
        return snap

    def release(self, snapshot: "SnapshotView") -> None:
        """Close a snapshot, enabling garbage collection of old versions."""
        try:
            self._open_snapshots.remove(snapshot.version)
        except ValueError:
            raise TrappError("snapshot already released") from None
        self._gc()

    def _gc(self) -> None:
        horizon = min(self._open_snapshots, default=self._version)
        for history in self._history.values():
            history.prune_before(horizon)

    # ------------------------------------------------------------------
    def _alive_at(self, tid: int, version: int) -> bool:
        state = False
        for v, alive in self._membership.get(tid, []):
            if v > version:
                break
            state = alive
        return state

    def _value_at(self, tid: int, column: str, version: int) -> Any:
        return self._history[(tid, column)].value_at(version)

    def history_depth(self) -> int:
        """Total stored versions across cells (for GC tests)."""
        return sum(len(h.versions) for h in self._history.values())


class SnapshotView:
    """A frozen, Table-like view at one version of a VersionedTable.

    Provides the subset of the Table interface queries need (iteration,
    ``rows()``, ``row()``, ``schema``, ``name``), resolving every read at
    the snapshot version.
    """

    def __init__(self, source: VersionedTable, version: int) -> None:
        self._source = source
        self.version = version
        self.schema = source.live.schema
        self.name = source.live.name

    def tids(self) -> list[int]:
        return sorted(
            tid
            for tid in self._source._membership
            if self._source._alive_at(tid, self.version)
        )

    def rows(self) -> list[Row]:
        return [self.row(tid) for tid in self.tids()]

    def row(self, tid: int) -> Row:
        if not self._source._alive_at(tid, self.version):
            raise TrappError(
                f"tuple #{tid} does not exist at version {self.version}"
            )
        values = {
            column.name: self._source._value_at(tid, column.name, self.version)
            for column in self.schema
        }
        return Row(tid, values)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __len__(self) -> int:
        return len(self.tids())

    def close(self) -> None:
        self._source.release(self)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
