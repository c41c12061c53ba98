"""Sorted secondary indexes over cached tables.

The paper (§5.1, §8.3) observes that several CHOOSE_REFRESH algorithms run
in sublinear time given B-tree indexes on bound endpoints (lower endpoint,
upper endpoint, width, or refresh cost).  This module provides
:class:`SortedIndex`, a sorted-array index with binary-search range scans —
the standard in-memory stand-in for a B-tree — plus :class:`IndexSet`, the
per-table registry that keeps every index synchronized on insert, delete,
and refresh.

The index stores ``(key, tid)`` pairs sorted by key; lookups return tuple
ids, which the table resolves back to rows.  A full B-tree would add
nothing observable at in-memory scale, but the *asymptotics* match: range
scans cost ``O(log n + k)``.

.. note::
   Since PR 10 this module is a **reference implementation** of the
   paper's index claim, kept for the row-path API and its readable
   bisect-based mechanics.  The serving pipeline's hot paths use the
   columnar equivalents instead: the epoch-versioned sorted endpoint
   orders on :class:`repro.storage.columnar.ColumnStore`
   (``endpoint_order``/``width_order``) and the index-backed classifier
   :func:`repro.predicates.batch.classify_report`, which answer the
   same ``O(log n + k)`` range questions over NumPy arrays with
   splice-repair maintenance instead of per-row bisect updates.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Iterator

from repro.storage.row import Row

__all__ = ["SortedIndex", "IndexSet"]

KeyFunc = Callable[[Row], float]


class SortedIndex:
    """A sorted ``(key, tid)`` array supporting ``O(log n + k)`` range scans."""

    __slots__ = ("name", "_key_func", "_keys", "_tids", "_key_of_tid")

    def __init__(self, name: str, key_func: KeyFunc) -> None:
        self.name = name
        self._key_func = key_func
        self._keys: list[float] = []
        self._tids: list[int] = []
        self._key_of_tid: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        key = float(self._key_func(row))
        pos = bisect.bisect_left(self._keys, key)
        # Break key ties by tid so removal can locate the exact entry.
        while pos < len(self._keys) and self._keys[pos] == key and self._tids[pos] < row.tid:
            pos += 1
        self._keys.insert(pos, key)
        self._tids.insert(pos, row.tid)
        self._key_of_tid[row.tid] = key

    def remove(self, tid: int) -> None:
        key = self._key_of_tid.pop(tid, None)
        if key is None:
            return
        pos = bisect.bisect_left(self._keys, key)
        while pos < len(self._keys) and self._keys[pos] == key:
            if self._tids[pos] == tid:
                del self._keys[pos]
                del self._tids[pos]
                return
            pos += 1

    def update(self, row: Row) -> None:
        """Re-key one row after its value changed (refresh path)."""
        self.remove(row.tid)
        self.insert(row)

    def rebuild(self, rows: Iterable[Row]) -> None:
        """Recompute the whole index from scratch."""
        entries = sorted((float(self._key_func(r)), r.tid) for r in rows)
        self._keys = [k for k, _ in entries]
        self._tids = [t for _, t in entries]
        self._key_of_tid = {t: k for k, t in entries}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def min_key(self) -> float:
        """Smallest key, or ``+inf`` for an empty index (paper convention)."""
        return self._keys[0] if self._keys else math.inf

    def max_key(self) -> float:
        """Largest key, or ``-inf`` for an empty index (paper convention)."""
        return self._keys[-1] if self._keys else -math.inf

    def tids_below(self, threshold: float, strict: bool = True) -> list[int]:
        """Tuple ids with ``key < threshold`` (or ``<=`` when not strict)."""
        cut = (bisect.bisect_left if strict else bisect.bisect_right)(
            self._keys, threshold
        )
        return self._tids[:cut]

    def tids_above(self, threshold: float, strict: bool = True) -> list[int]:
        """Tuple ids with ``key > threshold`` (or ``>=`` when not strict)."""
        cut = (bisect.bisect_right if strict else bisect.bisect_left)(
            self._keys, threshold
        )
        return self._tids[cut:]

    def tids_in_range(self, lo: float, hi: float) -> list[int]:
        """Tuple ids with ``lo <= key <= hi``."""
        left = bisect.bisect_left(self._keys, lo)
        right = bisect.bisect_right(self._keys, hi)
        return self._tids[left:right]

    def ascending(self) -> Iterator[tuple[float, int]]:
        """Iterate ``(key, tid)`` in increasing key order."""
        return iter(zip(self._keys, self._tids))

    def prefix_within(self, budget: float) -> tuple[list[int], float]:
        """The longest ascending-key prefix whose keys sum to ≤ ``budget``.

        Over a ``<column>__width`` index this is exactly the §5.2
        uniform-cost CHOOSE_REFRESH *kept* set — the lightest tuples that
        together still fit the precision budget — selected in ``O(k)``
        without visiting the other ``n − k`` entries.  Returns the tuple
        ids and their key total.
        """
        kept: list[int] = []
        total = 0.0
        for key, tid in zip(self._keys, self._tids):
            if total + key > budget:
                break
            total += key
            kept.append(tid)
        return kept, total

    def descending(self) -> Iterator[tuple[float, int]]:
        """Iterate ``(key, tid)`` in decreasing key order."""
        return iter(zip(reversed(self._keys), reversed(self._tids)))


class IndexSet:
    """All secondary indexes of one table, kept in lockstep with the data."""

    __slots__ = ("_indexes",)

    def __init__(self) -> None:
        self._indexes: dict[str, SortedIndex] = {}

    def create(self, name: str, key_func: KeyFunc, rows: Iterable[Row]) -> SortedIndex:
        index = SortedIndex(name, key_func)
        index.rebuild(rows)
        self._indexes[name] = index
        return index

    def drop(self, name: str) -> None:
        self._indexes.pop(name, None)

    def get(self, name: str) -> SortedIndex | None:
        return self._indexes.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)

    def names(self) -> list[str]:
        return sorted(self._indexes)

    def on_insert(self, row: Row) -> None:
        for index in self._indexes.values():
            index.insert(row)

    def on_delete(self, tid: int) -> None:
        for index in self._indexes.values():
            index.remove(tid)

    def on_update(self, row: Row) -> None:
        for index in self._indexes.values():
            index.update(row)
