"""The column store: the only copy of a table's cells.

The TRAPP executor's hot loops — "is every value of this column exact?",
"sum every tuple's ``[L_i, H_i]``", "partition all tuples into T+/T?/T−"
— are NumPy array sweeps over a :class:`ColumnStore`, a struct-of-arrays
layout that is the table's only storage:

* every numeric column (``EXACT`` and ``BOUNDED``) is a pair of parallel
  ``lo``/``hi`` float64 arrays (an exact value has ``lo == hi``);
* every ``EXACT`` and ``TEXT`` column is also an object array holding the
  Python object that was written, so it reads back unchanged (an ``int``
  key stays an ``int`` in GROUP BY results and on the wire);
* each bounded column carries a *dirty counter* — the number of tuples
  whose bound is currently non-degenerate — maintained on every write, so
  the executor's "column entirely exact?" check is O(1) instead of a scan.

Every write — a table's ``insert``/``update_value``/``delete``, the
replication cache's ``sync_bounds`` and refresh delivery — lands here and
nowhere else.  :class:`~repro.storage.row.Row` objects are read-only
records built from the arrays on demand (:meth:`ColumnStore.values`,
:meth:`ColumnStore.column_values`).

Deletions swap the last slot into the hole to keep the arrays dense;
query-side accessors therefore re-sort by tuple id (memoized per store
layout) so columnar results align with ``Table.rows()`` order.

Three planner-facing entry points live here as well (ISSUE 3, ISSUE 10):

* :meth:`ColumnStore.width_order` — an **incremental planner cache** of
  ascending-(width, tid) orderings per bounded column, epoch-versioned
  against the store's mutation counter and maintained write-through:
  unmutated stores hand back the same ordering object, a few dirty
  tuples are repaired in place (mask + merge-insert), and only bulk
  churn triggers a full argsort.  Repeated service queries and the
  refresh scheduler's per-tick rebatching stop re-sorting ``n`` tuples
  per query.
* :meth:`ColumnStore.endpoint_order` — the same incremental cache over a
  numeric column's **raw endpoints**: one ascending-(lo, tid) view and
  one ascending-(hi, tid) view per column, sharing the width cache's
  splice-repair machinery.  These are the paper's §5.1/§8.3 endpoint
  B-trees in columnar form; ``repro.predicates.batch`` turns predicate
  comparisons into ``O(log n + k)`` window lookups over them instead of
  sweeping whole columns.
* :func:`harvest_candidates` — emits the CHOOSE_REFRESH candidate set
  (tuple ids, knapsack weights, refresh costs, and the sorted-width
  order) as parallel vectors straight from the column arrays, with
  **no per-row Python objects**; its
  :meth:`~CandidateVectors.solver_vectors` handoff is flat stdlib
  ``array('q')``/``array('d')`` storage consumed by
  :func:`repro.core.knapsack.solve_vector`.  Candidates are the whole
  table (§5) or the classifier's sorted ``(T+, T?)`` *positions* (§6),
  gathered in ``O(k)``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.bound import Bound
from repro.errors import TrappError, UnknownColumnError
from repro.storage.schema import ColumnKind, Schema

__all__ = [
    "ColumnStore",
    "CandidateVectors",
    "candidate_order",
    "harvest_candidates",
]

_INITIAL_CAPACITY = 16

#: Dirty-tuple count (relative floor) beyond which repairing a cached
#: sorted ordering in place stops beating a fresh stable argsort.
_REPAIR_FLOOR = 32


@dataclass(slots=True)
class _SortedOrder:
    """One column's cached ascending-(key, tid) ordering.

    The *key* is the bound width (``width_order``) or a raw endpoint
    (``endpoint_order``); all three kinds share one lifecycle: ``epoch``
    is the store version the arrays were valid at, ``dirty`` collects
    tuple ids rewritten since then (by :meth:`ColumnStore.set`,
    ``write_cell`` and ``write_bounds``), and ``stale`` flags structural
    changes (append/remove) that force a full rebuild.

    ``keys_by_tid`` is the same key vector in tuple-id order (a read-only
    view) — what a full-table harvest wants, kept here so callers stop
    recomputing ``hi - lo`` the cache already paid for.
    """

    epoch: int
    tids: np.ndarray  # tuple ids, ascending by (key, tid)
    keys: np.ndarray  # the matching keys, ascending
    positions: np.ndarray  # index of each ordered tid in tuple-id order
    keys_by_tid: np.ndarray  # the keys in tuple-id order (read-only view)
    dirty: set[int] = field(default_factory=set)
    stale: bool = False

    @property
    def widths(self) -> np.ndarray:
        """Alias for ``keys`` on width orderings (the historical name)."""
        return self.keys


class ColumnStore:
    """Struct-of-arrays storage of one table's tuples.

    Mutations (:meth:`append`, :meth:`set`, :meth:`write_cell`,
    :meth:`write_bounds`, :meth:`remove`) keep the arrays, the per-column
    exactness counters, and a ``version`` stamp in sync; read accessors
    (:meth:`endpoints`, :meth:`objects`, :meth:`sorted_tids`) return
    tuple-id-ordered snapshots memoized against the store's stamps.
    """

    __slots__ = (
        "schema",
        "_numeric",
        "_text_cols",
        "_bounded",
        "_lo",
        "_hi",
        "_objects",
        "_tids",
        "_slot_of",
        "_n",
        "_non_exact",
        "version",
        "layout_version",
        "_memo_layout",
        "_memo_version",
        "_memo_order",
        "_memo_tids",
        "_memo_arrays",
        "_sorted_orders",
        "_column_orders",
    )

    has_endpoint_orders = True  #: classification may use index windows

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._numeric = tuple(c.name for c in schema if c.kind is not ColumnKind.TEXT)
        self._text_cols = tuple(c.name for c in schema if c.kind is ColumnKind.TEXT)
        self._bounded = frozenset(c.name for c in schema if c.is_bounded)
        cap = _INITIAL_CAPACITY
        self._lo = {name: np.empty(cap, dtype=np.float64) for name in self._numeric}
        self._hi = {name: np.empty(cap, dtype=np.float64) for name in self._numeric}
        #: The written objects of every EXACT and TEXT column.
        self._objects = {
            c.name: np.empty(cap, dtype=object) for c in schema if not c.is_bounded
        }
        self._tids = np.empty(cap, dtype=np.int64)
        self._slot_of: dict[int, int] = {}
        self._n = 0
        self._non_exact: dict[str, int] = {name: 0 for name in self._bounded}
        self.version = 0
        #: Bumped only when tuples enter or leave (append/remove), i.e.
        #: when the tid → slot assignment may have moved; bulk writers
        #: memoize their :meth:`slots_of` lookups against it.
        self.layout_version = 0
        self._memo_layout = -1
        self._memo_version = -1
        self._memo_order: np.ndarray | None = None
        self._memo_tids: np.ndarray | None = None
        self._memo_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: Cached (key, tid) orderings, keyed by (column, kind) where kind
        #: is "width" (planner cache) or "lo"/"hi" (endpoint indexes).
        self._sorted_orders: dict[tuple[str, str], _SortedOrder] = {}
        #: The same live orderings per column, so a cell write finds the
        #: ones to mark dirty (none, on a master) in one lookup.
        self._column_orders: dict[str, tuple[_SortedOrder, ...]] = {}

    # ------------------------------------------------------------------
    # Size / membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, tid: object) -> bool:
        return tid in self._slot_of

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, tid: int, values: Mapping[str, Any]) -> None:
        """Add one tuple's values (caller has already validated them)."""
        if tid in self._slot_of:
            raise TrappError(f"column store already holds tuple #{tid}")
        if self._n == len(self._tids):
            self._grow()
        slot = self._n
        for name in self._numeric:
            lo, hi = _endpoints(values[name])
            self._lo[name][slot] = lo
            self._hi[name][slot] = hi
            if name in self._bounded and lo < hi:
                self._non_exact[name] += 1
        for name, objects in self._objects.items():
            objects[slot] = values[name]
        self._tids[slot] = tid
        self._slot_of[tid] = slot
        self._n += 1
        self.version += 1
        self.layout_version += 1
        for order in self._sorted_orders.values():
            order.stale = True

    def set(self, tid: int, column: str, value: Any) -> None:
        """Overwrite one cell with a value the caller has validated (the
        ``Table.update_value`` path)."""
        try:
            slot = self._slot_of[tid]
        except KeyError:
            raise TrappError(f"column store holds no tuple #{tid}") from None
        objects = self._objects.get(column)
        if objects is not None:
            objects[slot] = value
        if column in self._lo:
            if type(value) is float:  # a master write: no Bound to unpack
                lo = hi = value
            else:
                lo, hi = _endpoints(value)
            wide = lo < hi
            # With every cell exact and an exact one arriving the counter
            # cannot move, so the old cell is not read.
            if column in self._bounded and (wide or self._non_exact[column]):
                was_wide = bool(self._lo[column][slot] < self._hi[column][slot])
                self._non_exact[column] += int(wide) - int(was_wide)
            self._lo[column][slot] = lo
            self._hi[column][slot] = hi
            for order in self._column_orders.get(column, ()):
                order.dirty.add(tid)
        elif objects is None:
            raise UnknownColumnError(column)
        self.version += 1

    def write_cell(self, tid: int, column: str, lo: float, hi: float) -> bool:
        """Overwrite one bounded cell by its endpoints; ``False`` when the
        store does not hold ``tid`` (nothing is touched).

        The single-cell twin of :meth:`write_bounds`, for a writer that
        already has validated endpoints (a refresh arriving at a cache):
        the arrays, the exactness counter and the column's cached
        orderings are updated as :meth:`set` would.
        """
        slot = self._slot_of.get(tid)
        if slot is None:
            return False
        if column not in self._bounded:
            self.schema[column]  # raise UnknownColumnError on bad names
            raise TrappError(f"column {column!r} is not bounded; no cell write")
        live_lo, live_hi = self._lo[column], self._hi[column]
        wide = lo < hi
        if wide or self._non_exact[column]:  # else the counter cannot move
            was_wide = bool(live_lo[slot] < live_hi[slot])
            self._non_exact[column] += int(wide) - int(was_wide)
        live_lo[slot] = lo
        live_hi[slot] = hi
        for order in self._column_orders.get(column, ()):
            order.dirty.add(tid)
        self.version += 1
        return True

    def remove(self, tid: int) -> None:
        """Drop one tuple, swapping the last slot into its place."""
        try:
            slot = self._slot_of.pop(tid)
        except KeyError:
            raise TrappError(f"column store holds no tuple #{tid}") from None
        for name in self._bounded:
            if self._lo[name][slot] < self._hi[name][slot]:
                self._non_exact[name] -= 1
        last = self._n - 1
        if slot != last:
            for name in self._numeric:
                self._lo[name][slot] = self._lo[name][last]
                self._hi[name][slot] = self._hi[name][last]
            for objects in self._objects.values():
                objects[slot] = objects[last]
            moved_tid = int(self._tids[last])
            self._tids[slot] = moved_tid
            self._slot_of[moved_tid] = slot
        for objects in self._objects.values():
            objects[last] = None  # release the reference
        self._n -= 1
        self.version += 1
        self.layout_version += 1
        for order in self._sorted_orders.values():
            order.stale = True

    def cell(self, tid: int, column: str) -> tuple[float, float]:
        """``(lo, hi)`` of one numeric cell as plain floats."""
        try:
            slot = self._slot_of[tid]
        except KeyError:
            raise TrappError(f"column store holds no tuple #{tid}") from None
        try:
            return self._lo[column].item(slot), self._hi[column].item(slot)
        except KeyError:
            self.schema[column]  # raise UnknownColumnError on bad names
            raise TrappError(f"column {column!r} is not numeric") from None

    def slots_of(self, tids: Iterable[int]) -> np.ndarray:
        """The array slot of each tuple id; ``-1`` for ids not held.

        Valid until :attr:`layout_version` moves.
        """
        slot_of = self._slot_of
        return np.fromiter((slot_of.get(tid, -1) for tid in tids), dtype=np.int64)

    def write_bounds(
        self, column: str, slots: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Overwrite many cells of one bounded column in a single pass.

        ``slots`` (from :meth:`slots_of`, distinct) name the cells;
        ``lo``/``hi`` are their new endpoints, already validated by the
        caller.  Only cells whose endpoints actually differ are written.
        When none does the store is left untouched — same ``version``,
        same cached orderings — which is what lets a standing clock reuse
        planner epochs across queries.  Otherwise the exactness counter
        moves by the net change, ``version`` is bumped once, and the
        column's cached orderings get the changed tuples marked dirty (or
        are marked stale outright once a splice-repair would no longer
        beat a fresh argsort).

        Returns the tuple ids whose cell changed.
        """
        if column not in self._bounded:
            self.schema[column]  # raise UnknownColumnError on bad names
            raise TrappError(f"column {column!r} is not bounded; no bulk write")
        live_lo, live_hi = self._lo[column], self._hi[column]
        old_lo, old_hi = live_lo[slots], live_hi[slots]
        changed = (old_lo != lo) | (old_hi != hi)
        n_changed = int(np.count_nonzero(changed))
        if not n_changed:
            return self._tids[:0]
        if n_changed < len(slots):
            slots, lo, hi = slots[changed], lo[changed], hi[changed]
            old_lo, old_hi = old_lo[changed], old_hi[changed]
        self._non_exact[column] += int(np.count_nonzero(lo < hi)) - int(
            np.count_nonzero(old_lo < old_hi)
        )
        live_lo[slots] = lo
        live_hi[slots] = hi
        tids = self._tids[slots]
        repairable = max(_REPAIR_FLOOR, self._n // 8)
        for order in self._column_orders.get(column, ()):
            if order.stale:
                continue
            if len(order.dirty) + n_changed > repairable:
                order.stale = True
            else:
                order.dirty.update(tids.tolist())
        self.version += 1
        return tids

    def _grow(self) -> None:
        cap = max(_INITIAL_CAPACITY, 2 * len(self._tids))
        for name in self._numeric:
            self._lo[name] = _resized(self._lo[name], cap)
            self._hi[name] = _resized(self._hi[name], cap)
        for name, objects in self._objects.items():
            self._objects[name] = _resized(objects, cap)
        self._tids = _resized(self._tids, cap)

    # ------------------------------------------------------------------
    # O(1) exactness
    # ------------------------------------------------------------------
    def column_exact(self, column: str) -> bool:
        """True when every current value of ``column`` is exactly known.

        O(1): bounded columns answer from the dirty counter maintained on
        writes; exact/text columns are exact by construction.  Vacuously
        true for an empty store, matching the row-scan semantics.
        """
        count = self._non_exact.get(column)
        if count is None:
            self.schema[column]  # raise UnknownColumnError on bad names
            return True
        return count == 0

    def non_exact_count(self, column: str) -> int:
        """Number of tuples whose ``column`` bound is currently wide."""
        return self._non_exact[column]

    # ------------------------------------------------------------------
    # Query-side snapshots (tuple-id order, memoized per version)
    # ------------------------------------------------------------------
    def _order(self) -> np.ndarray:
        if self._memo_layout != self.layout_version:
            self._memo_layout = self.layout_version
            self._memo_tids = None
            self._memo_order = np.argsort(self._tids[: self._n], kind="stable")
        assert self._memo_order is not None
        return self._memo_order

    def sorted_tids(self) -> np.ndarray:
        """All tuple ids, ascending (the order of ``Table.rows()``)."""
        order = self._order()
        if self._memo_tids is None:
            # Shared across calls until the next version bump: hand out a
            # read-only view so no consumer can scribble on the memo.
            self._memo_tids = _readonly(self._tids[: self._n][order])
        return self._memo_tids

    def endpoints(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` arrays for a numeric column, in tuple-id order.

        The arrays are snapshots: later mutations do not alter them.
        """
        if self._memo_version != self.version:
            self._memo_version = self.version
            self._memo_arrays = {}
        cached = self._memo_arrays.get(column)
        if cached is not None:
            return cached
        try:
            lo = self._lo[column]
            hi = self._hi[column]
        except KeyError:
            raise UnknownColumnError(column) from None
        order = self._order()
        snapshot = (lo[: self._n][order], hi[: self._n][order])
        self._memo_arrays[column] = snapshot
        return snapshot

    def objects(self, column: str) -> np.ndarray:
        """Object array of an EXACT or TEXT column's values as written, in
        tuple-id order."""
        try:
            values = self._objects[column]
        except KeyError:
            self.schema[column]  # raise UnknownColumnError on bad names
            raise TrappError(f"column {column!r} is bounded; no objects") from None
        return values[: self._n][self._order()]

    def is_text(self, column: str) -> bool:
        return column in self._text_cols

    def values(self, tid: int) -> dict[str, Any]:
        """One tuple's cells as Python values, in schema order.

        EXACT and TEXT cells are the objects written; a BOUNDED cell is a
        ``float`` when its bound is exact and a :class:`Bound` otherwise.
        """
        try:
            slot = self._slot_of[tid]
        except KeyError:
            raise TrappError(f"column store holds no tuple #{tid}") from None
        lo, hi, objects = self._lo, self._hi, self._objects
        return {
            name: objects[name][slot]
            if name in objects
            else _cell(lo[name].item(slot), hi[name].item(slot))
            for name in self.schema.column_names
        }

    def column_values(self, column: str) -> list[Any]:
        """Every cell of one column as :meth:`values` reads it, in
        tuple-id order."""
        if column in self._objects:
            return self.objects(column).tolist()
        lo, hi = self.endpoints(column)
        return [_cell(l, h) for l, h in zip(lo.tolist(), hi.tolist())]

    def column_key(self, column: str, table: str | None = None) -> str:
        """What the read accessors know a column reference by: one table
        lives here, so a qualifier adds nothing."""
        return column

    # ------------------------------------------------------------------
    # Incremental sorted-order caches: width (planner) + endpoints (index)
    # ------------------------------------------------------------------
    def width_order(self, column: str) -> _SortedOrder:
        """The ascending-(width, tid) ordering of a numeric column.

        Epoch-versioned against the store: while no mutation happened the
        same object is handed back untouched; after writes to a few
        tuples the cached ordering is *repaired* (dirty entries masked
        out, re-inserted at their new ranks) instead of re-sorted; only
        structural churn (insert/delete) or bulk rewrites fall back to a
        full stable argsort.  This is what lets CHOOSE_REFRESH's
        uniform-cost path run sort-free per query instead of paying
        ``O(n log n)``: the sort is amortized across the write stream.
        """
        return self._sorted_order(column, "width")

    def endpoint_order(self, column: str, side: str) -> _SortedOrder:
        """The ascending-(endpoint, tid) ordering of a numeric column.

        ``side`` is ``"lo"`` or ``"hi"``.  These are the columnar
        analogue of the paper's §5.1 endpoint B-trees, with the same
        incremental lifecycle as :meth:`width_order` (re-stamp when
        untouched, splice-repair small dirty sets, full argsort only on
        structural churn).  The index-backed classifier in
        :mod:`repro.predicates.batch` binary-searches ``keys`` to turn a
        comparison against a constant into a contiguous window of
        ``positions`` — tuples outside the window are decided wholesale.
        """
        if side not in ("lo", "hi"):
            raise TrappError(f"endpoint side must be 'lo' or 'hi', not {side!r}")
        return self._sorted_order(column, side)

    def _sorted_order(self, column: str, kind: str) -> _SortedOrder:
        if column not in self._lo:
            self.schema[column]  # raise UnknownColumnError on bad names
            raise TrappError(f"column {column!r} is not numeric; no sorted order")
        cache_key = (column, kind)
        order = self._sorted_orders.get(cache_key)
        if order is not None and order.epoch == self.version:
            return order
        if order is not None and not order.stale and not order.dirty:
            # The version moved, but only other columns were written:
            # this ordering is still exact — re-stamp and reuse it.
            order.epoch = self.version
            return order
        if (
            order is not None
            and not order.stale
            and len(order.dirty) <= max(_REPAIR_FLOOR, self._n // 8)
        ):
            rebuilt = self._repair_sorted_order(column, kind, order)
        else:
            rebuilt = self._build_sorted_order(column, kind)
        self._sorted_orders[cache_key] = rebuilt
        self._column_orders[column] = tuple(
            live for (name, _), live in self._sorted_orders.items() if name == column
        )
        return rebuilt

    def _keys_by_tid(self, column: str, kind: str) -> np.ndarray:
        lo, hi = self.endpoints(column)
        if kind == "width":
            return hi - lo
        return lo if kind == "lo" else hi

    def _slot_keys(self, column: str, kind: str, slots: np.ndarray) -> np.ndarray:
        if kind == "width":
            return self._hi[column][slots] - self._lo[column][slots]
        source = self._lo[column] if kind == "lo" else self._hi[column]
        return source[slots]

    def _build_sorted_order(self, column: str, kind: str) -> _SortedOrder:
        by_tid = self._keys_by_tid(column, kind)
        positions = np.argsort(by_tid, kind="stable")  # ties keep tid order
        return _SortedOrder(
            epoch=self.version,
            tids=self.sorted_tids()[positions],
            keys=by_tid[positions],
            positions=positions,
            keys_by_tid=_readonly(by_tid),
        )

    def _build_width_order(self, column: str) -> _SortedOrder:
        """Historical spelling of a fresh width-order build (tests use it)."""
        return self._build_sorted_order(column, "width")

    def _repair_sorted_order(
        self, column: str, kind: str, order: _SortedOrder
    ) -> _SortedOrder:
        """Splice a few rewritten tuples back into a cached ordering.

        Shared by the width cache and both endpoint indexes: the dirty
        tuples are masked out of the surviving run, re-keyed from the
        live arrays, and merge-inserted at their new ranks.
        """
        dirty = np.fromiter(order.dirty, dtype=np.int64, count=len(order.dirty))
        keep = ~np.isin(order.tids, dirty)
        base_tids = order.tids[keep]
        base_keys = order.keys[keep]
        slots = np.fromiter(
            (self._slot_of[int(t)] for t in dirty), dtype=np.int64, count=len(dirty)
        )
        new_keys = self._slot_keys(column, kind, slots)
        resort = np.lexsort((dirty, new_keys))
        dirty, new_keys = dirty[resort], new_keys[resort]
        at = np.searchsorted(base_keys, new_keys, side="left")
        # Equal-key runs must stay tid-ascending (the invariant a fresh
        # stable argsort produces, and what makes repaired and rebuilt
        # orderings choose identical uniform-cost plans): within a tie,
        # place each dirty tuple after the surviving smaller tids.
        right = np.searchsorted(base_keys, new_keys, side="right")
        for k in np.flatnonzero(right > at):
            run = base_tids[at[k]:right[k]]  # ascending by the invariant
            at[k] += int(np.searchsorted(run, dirty[k]))
        tids = np.insert(base_tids, at, dirty)
        keys = np.insert(base_keys, at, new_keys)
        sorted_tids = self.sorted_tids()
        keys_by_tid = order.keys_by_tid.copy()
        keys_by_tid[np.searchsorted(sorted_tids, dirty)] = new_keys
        return _SortedOrder(
            epoch=self.version,
            tids=tids,
            keys=keys,
            positions=np.searchsorted(sorted_tids, tids),
            keys_by_tid=_readonly(keys_by_tid),
        )

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self._n} rows, "
            f"{len(self._numeric)} numeric + {len(self._text_cols)} text columns)"
        )


@dataclass(slots=True)
class CandidateVectors:
    """Parallel CHOOSE_REFRESH candidate vectors (no per-row objects).

    Position ``k`` across ``tids``/``widths``/``costs`` describes one
    candidate tuple: its id, its knapsack weight (bound width — T?
    candidates pre-extended to zero, post-refinement), and its refresh
    cost.  ``order`` lists positions ascending by (width, tid), so the
    uniform-cost planner is one ascending walk with no sort;
    ``cost_min``/``cost_max``/``costs_integral``/``cost_total`` drive
    solver selection without per-call re-scans.
    """

    tids: np.ndarray
    widths: np.ndarray
    costs: np.ndarray
    order: np.ndarray
    cost_min: float
    cost_max: float
    cost_total: float
    costs_integral: bool

    def __len__(self) -> int:
        return len(self.tids)

    def solver_vectors(self) -> tuple["array", "array", "array"]:
        """``(weights, costs, order)`` as flat stdlib arrays.

        The handoff to :func:`repro.core.knapsack.solve_vector`: ``'d'``
        doubles for weights/costs, ``'q'`` int64 for the order — plain
        buffers whose items index as Python floats/ints, which is what a
        pure-Python DP loop wants (NumPy scalar boxing is slower).
        """
        return (
            _flat_d(self.widths),
            _flat_d(self.costs),
            _flat_q(self.order),
        )


def candidate_order(widths: np.ndarray, tids: np.ndarray) -> np.ndarray:
    """Positions ascending by ``(width, tid)``.

    Bit-identical to ``np.lexsort((tids, widths))`` but built from one
    unstable argsort: candidate widths rarely tie (bound widths are
    continuous), so the quicksort permutation usually *is* the answer
    and only equal-width runs — detected with one equality scan — need
    their tids reordered.  Falls back to ``lexsort`` when ties are
    pervasive (e.g. many exact tuples at width zero) or a NaN slipped
    into the widths, where run-by-run repair loses its edge.
    """
    order = np.argsort(widths)
    sorted_w = widths[order]
    if len(sorted_w) and np.isnan(sorted_w[-1]):
        return np.lexsort((tids, widths))
    tied = sorted_w[1:] == sorted_w[:-1]
    if not tied.any():
        return order
    # Starts of maximal equal-width runs, each run re-sorted tid-ascending.
    breaks = np.flatnonzero(np.logical_not(tied)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(sorted_w)]))
    runs = np.flatnonzero(ends - starts > 1)
    if len(runs) > 64:
        return np.lexsort((tids, widths))
    sorted_t = tids[order]
    for k in runs:
        s, e = starts[k], ends[k]
        order[s:e] = order[s:e][np.argsort(sorted_t[s:e], kind="stable")]
    return order


def harvest_candidates(
    store: ColumnStore,
    column: str,
    costs: np.ndarray,
    *,
    positions: "tuple[np.ndarray, np.ndarray] | None" = None,
    predicate=None,
) -> CandidateVectors:
    """Emit one query's refresh candidates as parallel vectors.

    Without ``positions`` the candidate set is the whole table (§5
    regime); the sorted-width ordering *and* the tuple-id-ordered width
    vector both come straight from the store's incremental planner cache
    — nothing is recomputed per query.  With the sorted ``(T+, T?)``
    tuple-order positions (:attr:`repro.predicates.batch.ClassifyReport.
    positions`, or one GROUP BY group's share of them) candidates are
    T+ ∪ T?, gathered in O(k), and each T? weight is its bound —
    optionally Appendix-D restricted by ``predicate`` — extended to zero
    (§6.2).

    ``costs`` holds one refresh cost per candidate, aligned with the
    emitted vectors (tuple-id order over the whole table, ``[T+ …, T? …]``
    otherwise), as :func:`repro.core.refresh.base.candidate_costs` prices
    them; the solver-selection stats are read off it.
    """
    if positions is None:
        order_cache = store.width_order(column)
        tids = store.sorted_tids()
        widths = order_cache.keys_by_tid
        order = order_cache.positions
    else:
        certain_at, maybe_at = positions
        # One fused gather per source array over the [T+ …, T? …]
        # position vector (gather-then-concatenate and
        # concatenate-then-gather are elementwise identical); the T?
        # tail's §6.2 extend-to-zero then overwrites its width slice.
        at = np.concatenate([certain_at, maybe_at])
        k_plus = len(certain_at)
        lo, hi = store.endpoints(column)
        lo_at, hi_at = lo[at], hi[at]
        maybe_lo, maybe_hi = lo_at[k_plus:], hi_at[k_plus:]
        if predicate is not None and len(maybe_lo):
            from repro.predicates.batch import restrict_endpoints

            maybe_lo, maybe_hi = restrict_endpoints(
                maybe_lo, maybe_hi, predicate, column
            )
        tids = store.sorted_tids()[at]
        widths = hi_at - lo_at
        widths[k_plus:] = np.maximum(maybe_hi, 0.0) - np.minimum(maybe_lo, 0.0)
        order = candidate_order(widths, tids)
    if not len(costs):
        cost_min = cost_max = cost_total = 0.0
        costs_integral = True
    else:
        cost_min = float(costs.min())
        cost_max = float(costs.max())
        if cost_min == cost_max:
            # One price for every candidate: the stats are arithmetic on
            # it, no second sweep of the vector.
            rounded = round(cost_min)
            costs_integral = abs(cost_min - rounded) <= 1e-9
            cost_total = float(rounded * len(costs))
        else:
            rounded = np.rint(costs)
            costs_integral = bool(np.all(np.abs(costs - rounded) <= 1e-9))
            cost_total = float(rounded.sum())
        if not costs_integral:
            cost_total = float(costs.sum())
    return CandidateVectors(
        tids=tids,
        widths=widths,
        costs=costs,
        order=order,
        cost_min=cost_min,
        cost_max=cost_max,
        cost_total=cost_total,
        costs_integral=costs_integral,
    )


def _flat_d(values: np.ndarray) -> "array":
    out = array("d")
    out.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return out


def _flat_q(values: np.ndarray) -> "array":
    out = array("q")
    out.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return out


def _cell(lo: float, hi: float) -> Any:
    """A bounded cell as rows read it: exact ones are plain floats."""
    return lo if lo == hi else Bound(lo, hi)


def _endpoints(value: Any) -> tuple[float, float]:
    if isinstance(value, Bound):
        return value.lo, value.hi
    v = float(value)
    return v, v


def _readonly(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values`` (the base array stays writable).

    Cached key vectors are handed out to harvesters verbatim; freezing
    the view keeps a stray in-place consumer from corrupting the cache.
    """
    view = values.view()
    view.flags.writeable = False
    return view


def _resized(array: np.ndarray, capacity: int) -> np.ndarray:
    grown = np.empty(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown
