"""MEDIAN as a first-class registered aggregate (paper §8.1 extension).

Importing this module registers ``MEDIAN`` with both the aggregate
registry and the CHOOSE_REFRESH dispatcher, so the three-step executor and
the SQL front-end (`SELECT MEDIAN(price) WITHIN 1 FROM stocks`) handle it
like the five standard aggregates.

Evaluation:

* **No predicate** — ``[median(L_i), median(H_i)]`` (see
  :func:`repro.extensions.median.bounded_median`).
* **With a predicate** — the contributing set ``S`` satisfies
  ``T+ ⊆ S ⊆ T+ ∪ T?``, and within any fixed ``S`` the realized median is
  monotone in each value, so the extremes are::

      lo = min over S of median(lows of S)
      hi = max over S of median(highs of S)

  Both optimizations are solved exactly by a prefix argument: to minimize
  the median, include T? lows in ascending order while the median drops;
  excluding any included low for a larger one can only raise it (mirror
  image for the maximum).

Refresh selection combines the membership rule (refresh every T? tuple the
budget cannot tolerate) with the no-predicate window rule from
:func:`repro.extensions.median.choose_refresh_median`.

Like the five standard aggregates, both halves exist twice: over
:class:`Row` lists, and (``*_columnar``, what the executor calls) over the
table's column arrays.  A median is a selection, not a sum, so the two
agree bit for bit.
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
from repro.extensions.median import bounded_median, choose_refresh_median, median_of
from repro.predicates.batch import ColumnarClassification
from repro.predicates.classify import Classification
from repro.storage.columnar import candidate_positions
from repro.storage.row import Row

__all__ = ["MedianAggregate", "MedianChooseRefresh", "MEDIAN", "CHOOSE_MEDIAN"]


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

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        return bounded_median(rows, column)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        plus = classification.plus
        maybe = classification.maybe
        if not plus and not maybe:
            return Bound.unbounded()
        lo = _extreme_median(
            [row.bound(column).lo for row in plus],
            [row.bound(column).lo for row in maybe],
            minimize=True,
        )
        hi = _extreme_median(
            [row.bound(column).hi for row in plus],
            [row.bound(column).hi for row in maybe],
            minimize=False,
        )
        return Bound(lo, hi)

    def bound_without_predicate_columnar(self, store, column: str | None) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        lo, hi = store.endpoints(column)
        if not len(lo):
            return Bound.unbounded()
        return Bound(median_of(lo.tolist()), median_of(hi.tolist()))

    def bound_with_classification_columnar(self, cc, column: str | None) -> Bound:
        """The same prefix argument over T+/T? endpoint arrays."""
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
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        return choose_refresh_median(rows, column, max_width, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        """Membership + window rule.

        Refresh (a) every T? tuple — deciding membership exactly — and (b)
        every T+ ∪ T? tuple wider than the budget whose bound overlaps the
        current extreme-median window.  After (a), the contributing set is
        known; after (b), the spanning-lemma argument of
        :func:`choose_refresh_median` bounds the realized window by the
        budget for any realization.
        """
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        spec = MEDIAN
        window = spec.bound_with_classification(classification, column)
        if width_within(window.width, max_width):
            return RefreshPlan.empty()
        chosen: dict[int, Row] = {row.tid: row for row in classification.maybe}
        for row in classification.plus_or_maybe:
            bound = row.bound(column)
            if bound.width > max_width and bound.overlaps(window):
                chosen[row.tid] = row
        return RefreshPlan.of(chosen.values(), cost)

    # ------------------------------------------------------------------
    def without_predicate_columnar(
        self,
        table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """:func:`choose_refresh_median`'s window rule as one mask."""
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        if max_width < 0:
            raise TrappError(
                f"precision budget must be non-negative, got {max_width}"
            )
        window = MEDIAN.bound_without_predicate_columnar(table.columns, column)
        if width_within(window.width, max_width):
            return RefreshPlan.empty(), None
        lo, hi = table.columns.endpoints(column)
        chosen = np.flatnonzero(_wide_in_window(lo, hi, window, max_width))
        return plan_at(table, cost, chosen), None

    def with_classification_columnar(
        self,
        table,
        certain,
        possible,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
        positions=None,
    ):
        """Membership + window rule: all of T?, and the wide T+ tuples
        overlapping the (Appendix-D-refined) extreme-median window."""
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        plus_at, maybe_at = candidate_positions(certain, possible, positions)
        cc = ColumnarClassification.from_masks(
            table.columns, None, None, column,
            predicate, predicate is not None, (plus_at, maybe_at),
        )
        window = MEDIAN.bound_with_classification_columnar(cc, column)
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
