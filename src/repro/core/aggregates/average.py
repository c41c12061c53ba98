"""Bounded AVG evaluators (paper §5.4, §6.4.1, Appendix E).

Without a predicate the cardinality is exact, so AVG is just the bounded
SUM divided by COUNT.

With a predicate both SUM and COUNT are bounded, and two evaluators exist:

* the **tight** ``O(n log n)`` bound of Appendix E — start from the T+
  endpoint averages and greedily average in T? endpoints while doing so
  moves the respective extreme outward;
* the **loose** linear-time bound of §6.4.1 — combine the SUM and COUNT
  intervals via the four endpoint quotients.  The loose bound is what the
  AVG CHOOSE_REFRESH optimizer (Appendix F) can guarantee against.

Both are exposed: :class:`AvgAggregate` (the registry entry) uses the tight
bound for answers; :func:`loose_avg_bound` backs the optimizer and the
tests that demonstrate tight ⊆ loose.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates.base import register
from repro.core.bound import Bound
from repro.errors import TrappError
from repro.predicates.batch import ColumnarClassification

__all__ = ["AvgAggregate", "AVG", "tight_avg_bound", "loose_avg_bound"]


def tight_avg_bound(cc: ColumnarClassification) -> Bound:
    """The Appendix E exact bound for AVG under a predicate.

    Lower endpoint: average the T+ lower endpoints, then sweep the T? lower
    endpoints in increasing order, averaging each in while it decreases the
    running average.  The upper endpoint is symmetric with decreasing upper
    endpoints.  The sums and sorts are vectorized; the greedy endpoint
    sweeps stay scalar loops because they typically terminate after a
    handful of T? tuples.
    """
    if cc.n_plus == 0 and cc.n_maybe == 0:
        # No tuple can satisfy the predicate: the precise AVG is
        # undefined, so no finite guarantee exists — the full line.
        return Bound.unbounded()
    if cc.n_plus == 0:
        # The answer set may be empty (undefined AVG) or contain any mix of
        # T? tuples; every individual value is a possible average, so the
        # hull of the T? bounds is the tight answer.
        return Bound(float(cc.maybe_lo.min()), float(cc.maybe_hi.max()))

    s_l = float(cc.plus_lo.sum())
    k_l = cc.n_plus
    for lo in np.sort(cc.maybe_lo):
        if lo < s_l / k_l:
            s_l += float(lo)
            k_l += 1
        else:
            break

    s_h = float(cc.plus_hi.sum())
    k_h = cc.n_plus
    for hi in np.sort(cc.maybe_hi)[::-1]:
        if hi > s_h / k_h:
            s_h += float(hi)
            k_h += 1
        else:
            break

    return Bound(s_l / k_l, s_h / k_h)


def loose_avg_bound(sum_bound: Bound, count_bound: Bound) -> Bound:
    """The §6.4.1 linear-time bound from SUM and COUNT intervals.

    ``[min(L_S/H_C, L_S/L_C), max(H_S/L_C, H_S/H_C)]``.  ``L_C`` may be
    zero (the answer set could be empty); since COUNT is integral, the
    smallest *nonempty* realization has count 1, so quotients use
    ``max(L_C, 1)`` — the average over an empty set is undefined rather
    than unbounded, and every nonempty realization is covered.
    """
    l_s, h_s = sum_bound.lo, sum_bound.hi
    l_c, h_c = count_bound.lo, count_bound.hi
    if h_c <= 0:
        # No tuple can satisfy the predicate; AVG is undefined.
        return Bound.unbounded()
    min_count = max(l_c, 1.0)

    lo = min(l_s / h_c, l_s / min_count)
    hi = max(h_s / h_c, h_s / min_count)
    return Bound(min(lo, hi), max(lo, hi))


class AvgAggregate:
    """Bounded AVG; tight Appendix E evaluation under predicates."""

    name = "AVG"
    needs_column = True

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        if column is None:
            raise TrappError("AVG requires an aggregation column")
        n = len(store)
        if n == 0:
            return Bound.unbounded()
        lo, hi = store.endpoints(column)
        return Bound(float(lo.sum()) / n, float(hi.sum()) / n)

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        if column is None:
            raise TrappError("AVG requires an aggregation column")
        return tight_avg_bound(cc)


AVG = register(AvgAggregate())
