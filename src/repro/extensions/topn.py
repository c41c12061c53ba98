"""Bounded TOP-n (paper §8.1 extension).

TOP-n generalizes MAX: the answer of interest is the n-th largest value
(and, for reporting, the identity of the top-n set).  Under bounded data:

* the n-th largest value's bounded answer is
  ``[ nth_largest(L_i) , nth_largest(H_i) ]`` — both endpoint multisets use
  the same order statistic, mirroring the bounded-median argument;
* the top-n *membership* splits tuples into certain members (tuples whose
  lower endpoint beats the (n+1)-th largest upper endpoint), certain
  non-members, and unresolved candidates.

CHOOSE_REFRESH follows the MAX pattern (Appendix C): refresh every tuple
whose bound overlaps the contested region around the n-th-place cutoff
wider than the precision budget.

Everything here is one array kernel over ``(tids, lo, hi)``: two sorts
and a binary search per tuple decide membership.  :func:`top_n_steps`
feeds it a table's ``ColumnStore`` columns; :func:`bounded_top_n` feeds
it one pass over its rows.  The per-tuple definition it must agree with
lives in ``tests/oracle/row_topn.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.executor import ExecutionSteps, PlannedRefresh, refresh_steps
from repro.core.refresh.base import CostFunc, plan_at, uniform_cost
from repro.errors import PredicateTypeError, TrappError
from repro.predicates.ast import Predicate, TruePredicate
from repro.predicates.batch import classify_masks
from repro.storage.row import Row
from repro.storage.table import Table

__all__ = [
    "TopNResult",
    "TopNAnswer",
    "bounded_top_n",
    "top_n_steps",
]

#: ``(tids, lo, hi)``: a column's tuple ids and endpoints, aligned.
Endpoints = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, slots=True)
class TopNResult:
    """The bounded n-th value plus the three membership sets."""

    #: Bounded value of the n-th largest element.
    nth_value: Bound
    #: Tuple ids certainly in the top-n set.
    certain_members: frozenset[int]
    #: Tuple ids that might be in the top-n set.
    possible_members: frozenset[int]


def _row_endpoints(rows: Sequence[Row], column: str) -> Endpoints:
    bounds = [row.bound(column) for row in rows]
    count = len(rows)
    return (
        np.fromiter((row.tid for row in rows), dtype=np.int64, count=count),
        np.fromiter((b.lo for b in bounds), dtype=np.float64, count=count),
        np.fromiter((b.hi for b in bounds), dtype=np.float64, count=count),
    )


def _require_rank(count: int, n: int) -> None:
    if n < 1:
        raise TrappError(f"n must be at least 1, got {n}")
    if count < n:
        raise TrappError(f"TOP-{n} over only {count} tuples is undefined")


def _top_n(endpoints: Endpoints, n: int) -> TopNResult:
    tids, lo, hi = endpoints
    count = len(tids)
    _require_rank(count, n)
    sorted_lo, sorted_hi = np.sort(lo), np.sort(hi)
    nth_value = Bound(float(sorted_lo[count - n]), float(sorted_hi[count - n]))
    if count == n:
        members = frozenset(tids.tolist())
        return TopNResult(nth_value, members, members)

    # A tuple is certainly in the top n iff fewer than n *other* tuples
    # can possibly exceed it (upper endpoint above its lower endpoint);
    # possibly in the top n iff fewer than n others certainly reach it
    # (lower endpoint at or above its upper endpoint).  Each count is the
    # tail of a sorted endpoint array, less the tuple itself.
    can_beat = count - np.searchsorted(sorted_hi, lo, side="right") - (hi > lo)
    must_beat = count - np.searchsorted(sorted_lo, hi, side="left") - (lo >= hi)
    return TopNResult(
        nth_value,
        frozenset(tids[can_beat < n].tolist()),
        frozenset(tids[must_beat < n].tolist()),
    )


def _refresh_mask(endpoints: Endpoints, n: int, max_width: float) -> np.ndarray:
    _, lo, hi = endpoints
    _require_rank(len(lo), n)
    at = len(lo) - n
    cutoff = float(np.partition(lo, at)[at])  # the n-th largest lower endpoint
    return (hi > cutoff + max_width) & (hi > lo)


def bounded_top_n(rows: Sequence[Row], column: str, n: int) -> TopNResult:
    """Compute the bounded TOP-n over a column of bounded values."""
    return _top_n(_row_endpoints(rows, column), n)


@dataclass(frozen=True, slots=True)
class TopNAnswer(BoundedAnswer):
    """A TOP-n query's answer in :class:`BoundedAnswer` clothing.

    ``bound`` is the bounded n-th largest value, so the service's width
    checks (result-cache validity) apply to TOP-n exactly as to scalar
    aggregates; the membership sets ride along.
    """

    certain_members: frozenset[int] = frozenset()
    possible_members: frozenset[int] = frozenset()


def top_n_steps(
    table: Table,
    n: int,
    column: str,
    max_width: float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """TOP-n as a resumable generator speaking ``PlannedRefresh``.

    The predicate must read exact columns only (two-valued membership —
    the compiler enforces this for SQL statements); the n-th value's
    bound is then narrowed to ``max_width`` by a CHOOSE_REFRESH plan in
    the executor's loop (:func:`~repro.core.executor.refresh_steps`) —
    one round while the master stands still, re-plans when it does not.
    Returns a :class:`TopNAnswer` via ``StopIteration.value``.
    """
    predicate = predicate if predicate is not None else TruePredicate()
    store = table.columns

    members = endpoints = result = None

    def bound() -> Bound:
        """The n-th value over the member tuples' endpoints as the store
        holds them now."""
        nonlocal members, endpoints, result
        tids = store.sorted_tids()
        lo, hi = store.endpoints(column)
        if isinstance(predicate, TruePredicate):
            members, endpoints = np.arange(len(tids)), (tids, lo, hi)
        else:
            certain, possible = classify_masks(store, predicate)
            if not np.array_equal(certain, possible):
                raise PredicateTypeError(
                    f"TOP-{n} filters on exact values only; the predicate "
                    "reads a bound that is not exact"
                )
            members = np.flatnonzero(certain)
            endpoints = tids[certain], lo[certain], hi[certain]
        result = _top_n(endpoints, n)
        return result.nth_value

    def plan(bound: Bound, max_width: float) -> PlannedRefresh:
        at = members[_refresh_mask(endpoints, n, max_width)]
        return PlannedRefresh(table, plan_at(table, cost, at), max_width, "TOPN")

    return (
        yield from refresh_steps(
            bound, max_width, plan, answer_type=TopNAnswer,
            fields=lambda: {
                "certain_members": result.certain_members,
                "possible_members": result.possible_members,
            },
        )
    )
