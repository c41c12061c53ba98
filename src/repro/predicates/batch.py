"""Vectorized classification and refinement over a table's column arrays.

The paper's §6 partition of a table under a predicate — T+ (certainly
satisfies), T? (may), T− (cannot) — and its Appendix D refinement,
computed array-at-a-time over a :class:`~repro.storage.columnar.
ColumnStore`.  Semantics are the paper's Figure 8 translation,
including its one-directional ``Possible``-of-∧ / ``Certain``-of-∨
approximations.  This is the only classifier in ``src/``; the one-row
semantics it must match are the oracles ``tests/oracle/row_eval.py``
(three-valued evaluation) and ``tests/oracle/transforms.py`` (the
symbolic ``Possible`` / ``Certain`` endpoint predicates), and its
row-at-a-time predecessor is ``tests/oracle/row_protocol.py``.

The evaluator represents a three-valued result as a pair of boolean masks
``(certain, possible)``: ``certain[i]`` ⟺ tuple *i* satisfies the
predicate under every realization of its bounds, ``possible[i]`` ⟺ under
at least one.  ``T+ = certain``, ``T? = possible ∧ ¬certain``,
``T− = ¬possible``.  All masks are aligned with ``Table.rows()`` (tuple-id)
order.  What everything downstream of classification consumes — answer
assembly, candidate harvesting, every CHOOSE_REFRESH, GROUP BY's
per-group split — is the same partition as one **pair of sorted
tuple-order position arrays** ``(T+, T?)``:
:attr:`ClassifyReport.positions`.

Two routes produce the partition (ISSUE 10):

* the **dense evaluator** (:func:`classify_dense`) sweeps every tuple of every
  referenced column — the reference semantics, and the fallback for
  anything the indexes cannot express (column-vs-column comparisons,
  text columns, degenerate ``scale == 0`` terms);
* the **index-backed classifier** binary-searches the store's sorted
  endpoint views (:meth:`~repro.storage.columnar.ColumnStore.
  endpoint_order`) to turn each ``col op constant`` leaf into contiguous
  windows: tuples with ``hi < c`` or ``lo > c`` are decided wholesale
  and only the O(k) straddle window is materialized, as sorted
  tuple-position sets that And/Or/Not compose with exact set algebra
  (complement flags keep ``Not`` O(k)).  The position pair falls out of
  those sets directly and the dense masks are widened only if someone
  asks for them, so the executor's harvest and answer assembly stay
  O(log n + k) too.

The two routes are bit-identical by construction: every window boundary
is found by binary-searching with the *same* float64 arithmetic the
dense path applies elementwise (``scale · key + offset REL c``), so no
transformed-constant rounding can disagree, and the composition algebra
is exact.  A Hypothesis property in
``tests/property/test_interval_index.py`` pins this across random
predicates, bounds, and write/refresh interleavings that dirty the
indexes mid-stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PredicateError, PredicateTypeError
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    Term,
    TruePredicate,
)

__all__ = [
    "ColumnarClassification",
    "ClassifyReport",
    "classify_dense",
    "classify_masks",
    "classify_report",
    "restrict_endpoints",
]


# ----------------------------------------------------------------------
# Three-valued predicate evaluation over column arrays
# ----------------------------------------------------------------------
def classify_masks(store, predicate: Predicate) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``predicate`` over every tuple of a column store at once.

    Returns ``(certain, possible)`` boolean arrays in tuple-id order.
    Routed through the endpoint-index windows when the store has
    endpoint orders and every leaf is index-eligible (bit-identical to
    :func:`classify_dense`, the reference the equivalence tests call).
    """
    report = classify_report(store, predicate)
    return report.certain, report.possible


def classify_dense(store, predicate: Predicate) -> tuple[np.ndarray, np.ndarray]:
    """The dense sweep of every referenced column: the reference
    semantics, and the route where windows cannot answer.  Returns
    ``(certain, possible)`` masks in tuple-id order."""
    n = len(store)
    certain, possible = _eval(predicate, store)
    return _as_mask(certain, n), _as_mask(possible, n)


@dataclass(slots=True)
class ClassifyReport:
    """One classification: the ``(T+, T?)`` position pair, and the masks.

    :attr:`positions` — the sorted tuple-order positions of T+ and of T?
    — is what every consumer works from; it always answers, and is
    derived once and kept.  When the index-backed route ran
    (``used_index``) it comes straight from the window sets and the
    dense ``certain``/``possible`` masks are widened **lazily**, so
    consumers stay O(log n + k) and never pay the O(n) mask
    materialization; on the dense route it is one ``flatnonzero`` per
    mask.  ``window_fraction`` is the fraction of (tuple, leaf)
    decisions that had to be materialized from straddle windows (the
    rest were decided wholesale by two binary searches; low fractions
    are where the index pays).
    """

    used_index: bool = False
    window_fraction: float | None = None
    _n: int = 0
    _certain: np.ndarray | None = None
    _possible: np.ndarray | None = None
    _cset: "_PosSet | None" = None
    _pset: "_PosSet | None" = None
    _certain_positions: np.ndarray | None = None
    _maybe_positions: np.ndarray | None = None

    @property
    def certain(self) -> np.ndarray:
        if self._certain is None:
            self._certain = _ps_mask(self._cset, self._n)
        return self._certain

    @property
    def possible(self) -> np.ndarray:
        if self._possible is None:
            self._possible = _ps_mask(self._pset, self._n)
        return self._possible

    @property
    def certain_positions(self) -> np.ndarray:
        if self._certain_positions is None:
            if self.used_index and not self._cset.complement:
                self._certain_positions = self._cset.positions
            else:
                self._certain_positions = np.flatnonzero(self.certain)
        return self._certain_positions

    @property
    def maybe_positions(self) -> np.ndarray:
        if self._maybe_positions is None:
            if (
                self.used_index
                and not self._cset.complement
                and not self._pset.complement
            ):
                # certain ⊆ possible (an invariant of the trilean
                # semantics), so T? is the possible positions with the
                # certain ones — each found by one binary search into
                # the sorted superset — masked out.
                keep = np.ones(len(self._pset.positions), dtype=bool)
                keep[
                    np.searchsorted(
                        self._pset.positions, self._cset.positions
                    )
                ] = False
                self._maybe_positions = self._pset.positions[keep]
            else:
                self._maybe_positions = np.flatnonzero(
                    np.logical_and(self.possible, np.logical_not(self.certain))
                )
        return self._maybe_positions

    @property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(T+, T?)`` as sorted tuple-order position arrays."""
        return self.certain_positions, self.maybe_positions


def classify_report(store, predicate: Predicate) -> ClassifyReport:
    """Classify one table: the ``(T+, T?)`` pair, the masks on demand.

    Tries the endpoint-index windows first (``store.has_endpoint_orders``
    permitting); any leaf the indexes cannot express exactly
    (column-vs-column, text, ``scale == 0``) falls the whole predicate
    back to the dense evaluator.  Either way the partition is identical;
    only the cost of reading it differs.
    """
    n = len(store)
    if store.has_endpoint_orders and n:
        stats = _WindowStats()
        pair = _window_eval(predicate, store, stats)
        if pair is not None:
            cset, pset = pair
            fraction = (
                stats.touched / (n * stats.leaves) if stats.leaves else 0.0
            )
            report = ClassifyReport(
                used_index=True,
                window_fraction=fraction,
                _n=n,
                _cset=cset,
                _pset=pset,
            )
            if (
                isinstance(predicate, Comparison)
                and not cset.complement
                and not pset.complement
            ):
                report._maybe_positions = _leaf_maybe(
                    store, predicate, pset.positions
                )
            return report
    certain, possible = classify_dense(store, predicate)
    return ClassifyReport(_n=n, _certain=certain, _possible=possible)


def _as_mask(value, n: int) -> np.ndarray:
    array = np.asarray(value, dtype=bool)
    if array.ndim == 0:
        return np.full(n, bool(array))
    return array


def _eval(predicate: Predicate, store):
    if isinstance(predicate, TruePredicate):
        return True, True
    if isinstance(predicate, Comparison):
        return _eval_comparison(predicate, store)
    if isinstance(predicate, Not):
        certain, possible = _eval(predicate.operand, store)
        return np.logical_not(possible), np.logical_not(certain)
    if isinstance(predicate, (And, Or)):
        cl, pl = _eval(predicate.left, store)
        cr, pr = _eval(predicate.right, store)
        if isinstance(predicate, And):
            return np.logical_and(cl, cr), np.logical_and(pl, pr)
        return np.logical_or(cl, cr), np.logical_or(pl, pr)
    raise PredicateError(f"unknown predicate node {predicate!r}")


def _term_arrays(term: Term, store):
    """A term's value over all tuples: ``("num", lo, hi)`` or ``("str", v)``.

    Components may be scalars (literals) or arrays (column references);
    NumPy broadcasting unifies the two downstream.
    """
    if isinstance(term, Literal):
        if isinstance(term.value, str):
            return ("str", term.value)
        v = float(term.value)
        return ("num", v, v)
    # ColumnRef: a ColumnStore holds one table, so the unqualified name is
    # authoritative there (mirrors the oracle row_eval.resolve_column); a
    # view over several tables (repro.joins.classify) resolves by the
    # qualifier.
    column = store.column_key(term.column, term.table)
    if store.is_text(column):
        return ("str", store.objects(column))
    lo, hi = store.endpoints(column)
    if term.scale == 0.0:
        # 0 · x is 0 under every realization of x, unbounded ones
        # included (the Bound.__mul__ convention the row path follows);
        # elementwise, 0 · ∞ would be nan and fail every comparison.
        offset = float(term.offset)
        return ("num", offset, offset)
    if term.scale != 1.0 or term.offset != 0.0:
        if term.scale >= 0:
            lo, hi = term.scale * lo + term.offset, term.scale * hi + term.offset
        else:
            lo, hi = term.scale * hi + term.offset, term.scale * lo + term.offset
    return ("num", lo, hi)


def _eval_comparison(comparison: Comparison, store):
    left = _term_arrays(comparison.left, store)
    right = _term_arrays(comparison.right, store)
    op = comparison.op
    if left[0] == "str" or right[0] == "str":
        if left[0] != right[0]:
            raise PredicateTypeError("cannot compare string with numeric value")
        if op == "=":
            result = left[1] == right[1]
        elif op == "!=":
            result = left[1] != right[1]
        else:
            raise PredicateTypeError(f"operator {op!r} is not defined for strings")
        return result, result

    _, l_lo, l_hi = left
    _, r_lo, r_hi = right
    if op == "<":
        return np.less(l_hi, r_lo), np.less(l_lo, r_hi)
    if op == "<=":
        return np.less_equal(l_hi, r_lo), np.less_equal(l_lo, r_hi)
    if op == ">":
        return np.less(r_hi, l_lo), np.less(r_lo, l_hi)
    if op == ">=":
        return np.less_equal(r_hi, l_lo), np.less_equal(r_lo, l_hi)
    certain_eq = np.logical_and(
        np.equal(l_lo, l_hi), np.logical_and(np.equal(r_lo, r_hi), np.equal(l_lo, r_lo))
    )
    possible_eq = np.logical_and(np.less_equal(l_lo, r_hi), np.less_equal(r_lo, l_hi))
    if op == "=":
        return certain_eq, possible_eq
    if op == "!=":
        return np.logical_not(possible_eq), np.logical_not(certain_eq)
    raise PredicateError(f"unknown comparison operator {op!r}")


# ----------------------------------------------------------------------
# Index-backed classification: searchsorted windows + position-set algebra
# ----------------------------------------------------------------------
_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


@dataclass(slots=True)
class _PosSet:
    """A set of tuple-order positions: sorted unique array + complement.

    The complement flag is what keeps ``Not`` (and windows covering most
    of the table) O(k): a nearly-full set stores the few positions it
    *excludes* instead of materializing n entries.
    """

    positions: np.ndarray
    complement: bool = False


@dataclass(slots=True)
class _WindowStats:
    """Materialization accounting for the index route (telemetry)."""

    touched: int = 0
    leaves: int = 0


def _ps_not(a: _PosSet) -> _PosSet:
    return _PosSet(a.positions, not a.complement)


def _ps_and(a: _PosSet, b: _PosSet) -> _PosSet:
    if a.complement:
        if b.complement:  # ¬A ∧ ¬B = ¬(A ∪ B)
            return _PosSet(np.union1d(a.positions, b.positions), True)
        a, b = b, a  # put the positive operand first
    if b.complement:  # A ∧ ¬B = A \ B
        return _PosSet(
            np.setdiff1d(a.positions, b.positions, assume_unique=True), False
        )
    return _PosSet(
        np.intersect1d(a.positions, b.positions, assume_unique=True), False
    )


def _ps_or(a: _PosSet, b: _PosSet) -> _PosSet:
    return _ps_not(_ps_and(_ps_not(a), _ps_not(b)))


def _ps_mask(s: _PosSet, n: int) -> np.ndarray:
    mask = np.full(n, s.complement)
    if len(s.positions):
        mask[s.positions] = not s.complement
    return mask


def _partition(n: int, flipped) -> int:
    """First index in ``range(n)`` where ``flipped`` holds.

    ``flipped`` must be monotone over the sorted keys (False… then
    True…); two endpoint lookups per leaf replace the dense sweep.
    """
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if flipped(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _window_bounds(
    order, scale: float, offset: float, rel: str, c: float
) -> tuple[int, int]:
    """The ``[a, b)`` run of sorted-order entries with ``scale·key+offset REL c``.

    The probe arithmetic is scalar float64 — bit-identical to the dense
    path's elementwise ``scale * arr + offset`` (both are two correctly
    rounded IEEE-754 operations), so the boundary can never disagree
    with a full sweep.  ``scale`` must be nonzero: the transformed keys
    are then strictly monotone with the raw keys (increasing for
    positive scale, decreasing for negative), which is what makes the
    truth region contiguous.
    """
    keys = order.keys
    n = len(keys)
    if scale == 1.0 and offset == 0.0 and not math.isnan(c):
        # Untransformed term: the window boundary is the raw constant's
        # insertion point, and np.searchsorted's C comparisons are the
        # very IEEE-754 ``<`` the dense path applies elementwise — no
        # probe arithmetic at all.  (A NaN constant would sort above
        # +inf and flip the window open; the probe loop's all-False
        # comparisons handle that degenerate case instead.)
        if rel == "==":
            return (
                int(np.searchsorted(keys, c, side="left")),
                int(np.searchsorted(keys, c, side="right")),
            )
        if rel == "<":
            return 0, int(np.searchsorted(keys, c, side="left"))
        if rel == "<=":
            return 0, int(np.searchsorted(keys, c, side="right"))
        if rel == ">":
            return int(np.searchsorted(keys, c, side="right")), n
        return int(np.searchsorted(keys, c, side="left")), n

    def value(i: int) -> float:
        return scale * float(keys[i]) + offset

    increasing = scale > 0.0
    if rel == "==":
        if increasing:
            a = _partition(n, lambda i: value(i) >= c)
            b = _partition(n, lambda i: value(i) > c)
        else:
            a = _partition(n, lambda i: value(i) <= c)
            b = _partition(n, lambda i: value(i) < c)
        return a, b
    if rel == "<":
        cond = lambda i: value(i) < c  # noqa: E731
        prefix = increasing
    elif rel == "<=":
        cond = lambda i: value(i) <= c  # noqa: E731
        prefix = increasing
    elif rel == ">":
        cond = lambda i: value(i) > c  # noqa: E731
        prefix = not increasing
    else:  # ">="
        cond = lambda i: value(i) >= c  # noqa: E731
        prefix = not increasing
    if prefix:  # truth region True… then False…
        return 0, _partition(n, lambda i: not cond(i))
    return _partition(n, cond), n


def _window_set(store, column, side, scale, offset, rel, c, stats) -> _PosSet:
    """One elementary condition as a position set, via two searchsorteds."""
    order = store.endpoint_order(column, side)
    n = len(order.keys)
    a, b = _window_bounds(order, scale, offset, rel, c)
    k = b - a
    if 2 * k > n:
        # The window covers most of the table: materialize its (small)
        # complement — the two outer runs of the same ordering.
        stats.touched += n - k
        outer = np.concatenate([order.positions[:a], order.positions[b:]])
        return _PosSet(np.sort(outer), True)
    stats.touched += k
    return _PosSet(np.sort(order.positions[a:b]), False)


def _window_pair_and(store, column, scale, offset, spec1, spec2, c, stats) -> _PosSet:
    """Intersect two elementary conditions without an O(n) set product.

    Both windows are located by binary search; the *smaller* one is
    gathered and filtered elementwise by the other condition on the raw
    arrays (same float64 arithmetic as the dense path).  Cost is
    O(min(|w1|, |w2|)) — the straddle set of an equality predicate
    against a far-off constant stays O(k).
    """
    side1, rel1 = spec1
    side2, rel2 = spec2
    order1 = store.endpoint_order(column, side1)
    order2 = store.endpoint_order(column, side2)
    a1, b1 = _window_bounds(order1, scale, offset, rel1, c)
    a2, b2 = _window_bounds(order2, scale, offset, rel2, c)
    if b2 - a2 < b1 - a1:
        order1, a1, b1 = order2, a2, b2
        side2, rel2 = side1, rel1
    positions = order1.positions[a1:b1]
    stats.touched += len(positions)
    if not len(positions):
        return _PosSet(_EMPTY_POSITIONS, False)
    lo_arr, hi_arr = store.endpoints(column)
    arr = lo_arr if side2 == "lo" else hi_arr
    values = scale * arr[positions] + offset
    if rel2 == "==":
        keep = np.equal(values, c)
    elif rel2 == "<=":
        keep = np.less_equal(values, c)
    else:  # ">="
        keep = np.greater_equal(values, c)
    return _PosSet(np.sort(positions[keep]), False)


def _comparison_windows(comparison: Comparison, store, stats):
    """A ``col op constant`` leaf as (certain, possible) position sets.

    Returns ``None`` when the leaf is not index-eligible —
    column-vs-column or literal-vs-literal comparisons, text operands,
    and ``scale == 0`` terms (constants, which no endpoint window
    describes) all defer to the dense evaluator.
    """
    cmp = comparison.normalized()
    left, right = cmp.left, cmp.right
    if not isinstance(left, ColumnRef) or not isinstance(right, Literal):
        return None
    if isinstance(right.value, str) or store.is_text(left.column):
        return None
    scale, offset = float(left.scale), float(left.offset)
    if scale == 0.0:
        return None
    column = left.column
    c = float(right.value)
    stats.leaves += 1
    # The term's own endpoints come from the raw arrays, swapped for a
    # negative scale exactly as the dense `_term_arrays` does.
    lo_side = "lo" if scale > 0 else "hi"  # where the term's low end lives
    hi_side = "hi" if scale > 0 else "lo"
    op = cmp.op
    if op == "<":
        certain = _window_set(store, column, hi_side, scale, offset, "<", c, stats)
        possible = _window_set(store, column, lo_side, scale, offset, "<", c, stats)
        return certain, possible
    if op == "<=":
        certain = _window_set(store, column, hi_side, scale, offset, "<=", c, stats)
        possible = _window_set(store, column, lo_side, scale, offset, "<=", c, stats)
        return certain, possible
    if op == ">":
        certain = _window_set(store, column, lo_side, scale, offset, ">", c, stats)
        possible = _window_set(store, column, hi_side, scale, offset, ">", c, stats)
        return certain, possible
    if op == ">=":
        certain = _window_set(store, column, lo_side, scale, offset, ">=", c, stats)
        possible = _window_set(store, column, hi_side, scale, offset, ">=", c, stats)
        return certain, possible
    if op in ("=", "!="):
        # certain(=) ⟺ both endpoints equal c; possible(=) ⟺ the bound
        # straddles c.  Each is the intersection of two windows.
        certain_eq = _window_pair_and(
            store, column, scale, offset, (lo_side, "=="), (hi_side, "=="), c, stats
        )
        possible_eq = _window_pair_and(
            store, column, scale, offset, (lo_side, "<="), (hi_side, ">="), c, stats
        )
        if op == "=":
            return certain_eq, possible_eq
        return _ps_not(possible_eq), _ps_not(certain_eq)
    return None  # unknown operator: the dense path raises the canonical error


def _leaf_maybe(store, comparison: Comparison, pset_positions) -> np.ndarray | None:
    """O(k) T? positions for a single inequality leaf, or ``None``.

    ``T? = possible ∧ ¬certain``; for one ``col op constant`` leaf the
    certain condition tests a single endpoint, so filtering the possible
    window's gathered endpoint values — the *same* ``scale·x + offset``
    float64 arithmetic and comparison the dense sweep applies — beats
    the generic sorted-set subtraction, whose per-probe binary searches
    dominate the report's position derivation.  The result is computed
    eagerly from classify-time arrays so the report stays a pure
    snapshot even if the store mutates afterwards.
    """
    cmp = comparison.normalized()
    left, right = cmp.left, cmp.right
    op = cmp.op
    if op not in ("<", "<=", ">", ">="):
        return None
    if not isinstance(left, ColumnRef) or not isinstance(right, Literal):
        return None
    scale, offset = float(left.scale), float(left.offset)
    if scale == 0.0 or isinstance(right.value, str):
        return None
    c = float(right.value)
    # The certain condition's endpoint, mirroring _comparison_windows:
    # `col < c` is certain when the term's *high* end clears c, `col > c`
    # when its *low* end does; a negative scale swaps which raw array
    # holds that end (exactly as the dense _term_arrays swap).
    if op in ("<", "<="):
        side = "hi" if scale > 0 else "lo"
    else:
        side = "lo" if scale > 0 else "hi"
    lo_arr, hi_arr = store.endpoints(left.column)
    values = (lo_arr if side == "lo" else hi_arr)[pset_positions]
    if scale != 1.0 or offset != 0.0:
        values = scale * values + offset
    if op == "<":
        certain = np.less(values, c)
    elif op == "<=":
        certain = np.less_equal(values, c)
    elif op == ">":
        certain = np.less(c, values)
    else:
        certain = np.less_equal(c, values)
    return pset_positions[np.logical_not(certain)]


def _window_eval(predicate: Predicate, store, stats):
    """Recursive index-backed evaluation to (certain, possible) sets.

    ``None`` propagates up from any ineligible leaf: partial routing
    would still sweep the ineligible column, so the whole predicate
    falls back to the dense evaluator instead.
    """
    if isinstance(predicate, TruePredicate):
        return _PosSet(_EMPTY_POSITIONS, True), _PosSet(_EMPTY_POSITIONS, True)
    if isinstance(predicate, Comparison):
        return _comparison_windows(predicate, store, stats)
    if isinstance(predicate, Not):
        pair = _window_eval(predicate.operand, store, stats)
        if pair is None:
            return None
        certain, possible = pair
        return _ps_not(possible), _ps_not(certain)
    if isinstance(predicate, (And, Or)):
        left = _window_eval(predicate.left, store, stats)
        if left is None:
            return None
        right = _window_eval(predicate.right, store, stats)
        if right is None:
            return None
        cl, pl = left
        cr, pr = right
        if isinstance(predicate, And):
            return _ps_and(cl, cr), _ps_and(pl, pr)
        return _ps_or(cl, cr), _ps_or(pl, pr)
    return None  # unknown node: the dense path raises the canonical error


# ----------------------------------------------------------------------
# Vectorized Appendix D refinement
# ----------------------------------------------------------------------
def restrict_endpoints(
    lo: np.ndarray, hi: np.ndarray, predicate: Predicate, column: str
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink many bounds at once to their predicate-consistent parts.

    The Appendix D refinement: when the selection predicate constrains
    the *aggregation column itself* (aggregating ``latency`` under
    ``latency > 10``), a T? tuple's bound can be narrowed to the part
    that could actually contribute — ``[max(lo, 10), hi]`` — before the
    answer is bounded or refresh tuples are chosen.  Only conjunctions of simple ``column OP constant`` comparisons are
    exploited; any other structure leaves the endpoints unchanged (always
    sound).  Returns new arrays; the inputs are not modified.
    """
    if isinstance(predicate, And):
        lo, hi = restrict_endpoints(lo, hi, predicate.left, column)
        return restrict_endpoints(lo, hi, predicate.right, column)
    if isinstance(predicate, Comparison):
        cmp = predicate.normalized()
        left, right = cmp.left, cmp.right
        if (
            isinstance(left, ColumnRef)
            and left.column == column
            and left.scale == 1.0
            and left.offset == 0.0
            and isinstance(right, Literal)
            and not isinstance(right.value, str)
        ):
            k = float(right.value)
            if cmp.op in (">", ">="):
                return np.minimum(np.maximum(lo, k), hi), hi
            if cmp.op in ("<", "<="):
                return lo, np.maximum(np.minimum(hi, k), lo)
            if cmp.op == "=":
                inside = np.logical_and(lo <= k, k <= hi)
                return np.where(inside, k, lo), np.where(inside, k, hi)
        return lo, hi
    # Or / Not / TruePredicate: no sound single-interval restriction.
    return lo, hi


# ----------------------------------------------------------------------
# Columnar classification summary consumed by the aggregates
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ColumnarClassification:
    """A ``(T+, T?)`` pair reduced to the aggregation column's arrays.

    ``plus_lo``/``plus_hi`` hold the T+ tuples' endpoints on the
    aggregation column, ``maybe_lo``/``maybe_hi`` the T? tuples' —
    post-refinement when the executor has Appendix D refinement enabled.
    For COUNT (no aggregation column) the arrays are None and only the
    partition sizes are meaningful.  T− is everything else and no
    aggregate reads it.
    """

    n_plus: int
    n_maybe: int
    plus_lo: np.ndarray | None = None
    plus_hi: np.ndarray | None = None
    maybe_lo: np.ndarray | None = None
    maybe_hi: np.ndarray | None = None

    @staticmethod
    def from_positions(
        store,
        positions: "tuple[np.ndarray, np.ndarray]",
        column: str | None,
        predicate: Predicate | None = None,
    ) -> "ColumnarClassification":
        """Gather the aggregation column at a ``(T+, T?)`` position pair.

        The pair is a whole table's (:attr:`ClassifyReport.positions`)
        or any subset of one — GROUP BY passes each group's share.  With
        a ``predicate``, T? endpoints are narrowed via
        :func:`restrict_endpoints` before aggregation (Appendix D).
        """
        plus_at, maybe_at = positions
        n_plus = len(plus_at)
        n_maybe = len(maybe_at)
        if column is None:
            return ColumnarClassification(n_plus, n_maybe)
        lo, hi = store.endpoints(column)
        maybe_lo, maybe_hi = lo[maybe_at], hi[maybe_at]
        if predicate is not None and n_maybe:
            maybe_lo, maybe_hi = restrict_endpoints(
                maybe_lo, maybe_hi, predicate, column
            )
        return ColumnarClassification(
            n_plus,
            n_maybe,
            plus_lo=lo[plus_at],
            plus_hi=hi[plus_at],
            maybe_lo=maybe_lo,
            maybe_hi=maybe_hi,
        )
