"""Bounded MEDIAN and refresh selection (paper §8.1 extension).

The paper lists MEDIAN among the aggregates it wants to support next,
citing the companion STOC 2000 work on computing the median with
uncertainty.  This module provides the natural TRAPP/AG formulation:

* **Bounded answer.** With ``n`` tuples whose values carry bounds, the
  median's extremes are reached when every value sits at the same end of
  its bound: the lower endpoint of the bounded median is the median of the
  ``L_i`` and the upper endpoint is the median of the ``H_i``.  (For any
  realization, value ``v_i ∈ [L_i, H_i]`` implies the sorted order's k-th
  statistic is sandwiched between the k-th statistics of the two endpoint
  multisets.)  For even ``n`` we use the lower median, matching the STOC
  paper's selection-index convention.

* **CHOOSE_REFRESH.** Uncertainty in the median comes from tuples whose
  bounds straddle the candidate median window.  The uniform-cost optimal
  strategy mirrors the STOC algorithm's structure: repeatedly refresh the
  tuples whose bounds overlap the interval between the two endpoint
  medians, cheapest-first, until the window narrows to the constraint.
  We implement the batch variant: select all tuples whose bound intersects
  the open interval ``(median_k(L) window, median_k(H) window)`` beyond
  the precision budget.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import width_within
from repro.core.bound import Bound
from repro.core.refresh.base import CostFunc, RefreshPlan, uniform_cost
from repro.errors import TrappError
from repro.storage.row import Row

__all__ = [
    "bounded_median",
    "choose_refresh_median",
    "median_of",
]


def median_of(values: Sequence[float]) -> float:
    """The lower median (k = ceil(n/2)-th smallest, 1-indexed)."""
    if not values:
        raise TrappError("median of an empty collection is undefined")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def bounded_median(rows: Sequence[Row], column: str) -> Bound:
    """The bounded MEDIAN over a column of bounded values.

    ``[ median(L_1..L_n) , median(H_1..H_n) ]`` — both endpoint multisets
    use the same selection index, so the interval contains the precise
    median for every realization.
    """
    if not rows:
        return Bound.unbounded()
    lows = [row.bound(column).lo for row in rows]
    highs = [row.bound(column).hi for row in rows]
    return Bound(median_of(lows), median_of(highs))


def choose_refresh_median(
    rows: Sequence[Row],
    column: str,
    max_width: float,
    cost: CostFunc = uniform_cost,
) -> RefreshPlan:
    """Select tuples to refresh so the median bound narrows to ``max_width``.

    The rule is forced (cost-independent), like MIN/MAX: refresh every
    tuple whose bound is **wider than the budget** and **overlaps the
    initial median window** ``W0 = [median(L), median(H)]``.

    Soundness argument.  Refreshing replaces ``[L_i, H_i]`` by an exact
    value inside it, so every post-refresh lower-endpoint multiset
    dominates the original (``L'_i >= L_i``) and every upper-endpoint
    multiset is dominated (``H'_i <= H_i``); hence any post-refresh window
    ``[median(L'), median(H')]`` is contained in ``W0``.  A counting
    argument shows every window ``[a, b]`` is *spanned* by some tuple
    (``L'_i <= a`` and ``H'_i >= b``): at most ``k-1`` tuples have
    ``H' < b`` and at most ``n-k`` have ``L' > a``, leaving at least one
    spanning tuple, whose width bounds the window width.  Post-refresh, a
    spanning tuple is refreshed (width 0), or has width ``<= R``, or was
    disjoint from ``W0`` — and the last cannot span a sub-window of
    ``W0``.  Therefore the final width is at most ``R`` for every
    realization of the refreshed values.
    """
    if max_width < 0:
        raise TrappError(f"precision budget must be non-negative, got {max_width}")
    if not rows:
        return RefreshPlan.empty()

    lows = [row.bound(column).lo for row in rows]
    highs = [row.bound(column).hi for row in rows]
    window = Bound(median_of(lows), median_of(highs))
    if width_within(window.width, max_width):
        return RefreshPlan.empty()

    chosen = [
        row
        for row in rows
        if row.bound(column).width > max_width
        and row.bound(column).overlaps(window)
    ]
    return RefreshPlan.of(chosen, cost)
