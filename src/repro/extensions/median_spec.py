"""Bounded MEDIAN as a first-class registered aggregate (paper §8.1).

The paper lists MEDIAN among the aggregates it wants to support next,
citing the companion STOC 2000 work on computing the median with
uncertainty.  Importing this module registers ``MEDIAN`` with both the
aggregate registry and the CHOOSE_REFRESH dispatcher, so the three-step
executor and the SQL front-end (`SELECT MEDIAN(price) WITHIN 1 FROM
stocks`) handle it like the five standard aggregates, through the same
two-method protocols over the table's column arrays.

Evaluation:

* **No predicate** — ``[median(L_i), median(H_i)]``: the median's
  extremes are reached when every value sits at the same end of its
  bound.  (For any realization, ``v_i ∈ [L_i, H_i]`` implies the sorted
  order's k-th statistic is sandwiched between the k-th statistics of
  the two endpoint multisets.)  For even ``n`` we use the lower median,
  matching the STOC paper's selection-index convention.
* **With a predicate** — the contributing set ``S`` satisfies
  ``T+ ⊆ S ⊆ T+ ∪ T?``, and within any fixed ``S`` the realized median is
  monotone in each value, so the extremes are::

      lo = min over S of median(lows of S)
      hi = max over S of median(highs of S)

  Both optimizations are solved exactly by a prefix argument: to minimize
  the median, include T? lows in ascending order while the median drops;
  excluding any included low for a larger one can only raise it (mirror
  image for the maximum).

Refresh selection is forced (cost-independent), like MIN/MAX: the
**window rule** refreshes every tuple whose bound is *wider than the
budget* and *overlaps the initial median window*
``W0 = [median(L), median(H)]``; under a predicate it is combined with the
membership rule (refresh every T? tuple).

Soundness of the window rule.  Refreshing replaces ``[L_i, H_i]`` by an
exact value inside it, so every post-refresh lower-endpoint multiset
dominates the original (``L'_i >= L_i``) and every upper-endpoint
multiset is dominated (``H'_i <= H_i``); hence any post-refresh window
``[median(L'), median(H')]`` is contained in ``W0``.  A counting argument
shows every window ``[a, b]`` is *spanned* by some tuple (``L'_i <= a``
and ``H'_i >= b``): at most ``k-1`` tuples have ``H' < b`` and at most
``n-k`` have ``L' > a``, leaving at least one spanning tuple, whose width
bounds the window width.  Post-refresh, a spanning tuple is refreshed
(width 0), or has width ``<= R``, or was disjoint from ``W0`` — and the
last cannot span a sub-window of ``W0``.  Therefore the final width is at
most ``R`` for every realization of the refreshed values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.constraints import width_within
from repro.core.aggregates.base import register
from repro.core.bound import Bound
from repro.core.refresh import register_choose_refresh
from repro.core.refresh.base import CostFunc, RefreshPlan, plan_at, uniform_cost
from repro.errors import TrappError
from repro.predicates.batch import ColumnarClassification

__all__ = [
    "MedianAggregate",
    "MedianChooseRefresh",
    "MEDIAN",
    "CHOOSE_MEDIAN",
    "median_of",
]


def median_of(values: Sequence[float]) -> float:
    """The lower median (k = ceil(n/2)-th smallest, 1-indexed)."""
    if not values:
        raise TrappError("median of an empty collection is undefined")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _extreme_median(
    base: list[float], optional: list[float], minimize: bool
) -> float:
    """Optimize ``median(base ∪ subset(optional))`` over subset choice.

    Prefix argument: by an exchange argument, some *prefix* of the optional
    values sorted toward the objective (ascending to minimize, descending
    to maximize) achieves the optimum — swapping any included value for a
    more extreme excluded one never hurts.  The lower-median convention
    makes the objective non-monotone in the prefix length (an odd/even
    index shift), so every prefix is evaluated rather than stopping at the
    first non-improvement.
    """
    if not base and not optional:
        raise TrappError("median of an empty collection is undefined")
    if not base:
        # S could be any nonempty subset; a singleton pins the median at
        # any single optional value, so the extreme is the extreme value.
        return min(optional) if minimize else max(optional)
    best = median_of(base)
    included = list(base)
    for value in sorted(optional, reverse=not minimize):
        included.append(value)
        candidate = median_of(included)
        if (candidate < best) if minimize else (candidate > best):
            best = candidate
    return best


class MedianAggregate:
    """Bounded MEDIAN (lower-median convention)."""

    name = "MEDIAN"
    needs_column = True

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        lo, hi = store.endpoints(column)
        if not len(lo):
            return Bound.unbounded()
        return Bound(median_of(lo.tolist()), median_of(hi.tolist()))

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        """The prefix argument over T+/T? endpoint arrays."""
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        if cc.n_plus == 0 and cc.n_maybe == 0:
            return Bound.unbounded()
        return Bound(
            _extreme_median(cc.plus_lo.tolist(), cc.maybe_lo.tolist(), minimize=True),
            _extreme_median(cc.plus_hi.tolist(), cc.maybe_hi.tolist(), minimize=False),
        )


class MedianChooseRefresh:
    """Refresh selection for MEDIAN queries."""

    name = "MEDIAN"

    def without_predicate(
        self,
        table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """The window rule as one mask over the whole table."""
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        if max_width < 0:
            raise TrappError(
                f"precision budget must be non-negative, got {max_width}"
            )
        window = MEDIAN.bound_without_predicate(table.columns, column)
        if width_within(window.width, max_width):
            return RefreshPlan.empty(), None
        lo, hi = table.columns.endpoints(column)
        chosen = np.flatnonzero(_wide_in_window(lo, hi, window, max_width))
        return plan_at(table, cost, chosen), None

    def with_classification(
        self,
        table,
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ):
        """Membership + window rule.

        Refresh (a) every T? tuple — deciding membership exactly — and
        (b) every T+ tuple wider than the budget whose bound overlaps the
        (Appendix-D-refined) extreme-median window.  After (a), the
        contributing set is known; after (b), the spanning-lemma argument
        bounds the realized window by the budget for any realization.
        """
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        plus_at, maybe_at = positions
        cc = ColumnarClassification.from_positions(
            table.columns, positions, column, predicate
        )
        window = MEDIAN.bound_with_classification(cc, column)
        if width_within(window.width, max_width):
            return RefreshPlan.empty(), None
        wide = _wide_in_window(cc.plus_lo, cc.plus_hi, window, max_width)
        return plan_at(table, cost, np.concatenate([maybe_at, plus_at[wide]])), None


def _wide_in_window(lo, hi, window: Bound, max_width: float):
    """Mask of bounds wider than the budget that overlap ``window``."""
    with np.errstate(invalid="ignore"):  # [inf, inf] has width 0, not nan
        wide = hi - lo > max_width
    return wide & (lo <= window.hi) & (window.lo <= hi)


MEDIAN = register(MedianAggregate())
CHOOSE_MEDIAN = register_choose_refresh("MEDIAN", MedianChooseRefresh())
