"""CHOOSE_REFRESH for AVG (paper §5.4, §6.4.2, Appendix F).

Without a predicate, COUNT is exact, so a precision constraint ``R`` on
AVG reduces to the constraint ``R * COUNT`` on SUM; we delegate to the SUM
optimizer with the scaled budget.

With a predicate, Appendix F reduces the problem to a single knapsack that
simultaneously accounts for SUM and COUNT uncertainty.  Writing
``[L'_S, H'_S]`` and ``[L'_C, H'_C]`` for the SUM/COUNT bounds computed
over the *current* cached data, the derivation yields a knapsack with

* capacity ``M = L'_C * R``, and
* item weights equal to the SUM weights (§6.2), plus — for T? tuples only —
  the slope penalty ``max(H'_S, -L'_S, H'_S - L'_S) / L'_C - R``,

because every T? tuple kept in the knapsack also widens the COUNT bound by
one, shrinking the effective SUM budget by the slope.  Tuples left out of
the knapsack are refreshed.  The structure (and hence complexity) is the
same as the SUM optimizer's.

Degenerate case: when ``L'_C = 0`` the derivation divides by zero — no
nonempty answer set is guaranteed, and the loose AVG bound cannot be made
finite without establishing one.  Every candidate is then a T? tuple, and
we refresh *all* of them (deciding the predicate and making COUNT exact);
this is sound, if not always minimal, and the situation cannot arise in
the paper's examples (T+ is nonempty whenever the constraint is finite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bound import Bound

# None of the three is called here; the names stay importable under this
# module's name because benchmarks/e2e/tracing.py (frozen) wraps
# ``repro.core.refresh.average.solve_*``.
from repro.core.knapsack import (  # noqa: F401
    solve_exact_dp,
    solve_greedy_uniform,
    solve_ibarra_kim,
)
from repro.core.refresh.base import CostFunc, RefreshPlan, uniform_cost
from repro.core.refresh.summing import DEFAULT_EPSILON, SumChooseRefresh
from repro.errors import TrappError
from repro.predicates.batch import restrict_endpoints
from repro.storage.columnar import CandidateVectors, candidate_order

__all__ = ["AvgChooseRefresh", "CHOOSE_AVG"]


class AvgChooseRefresh:
    """Knapsack-based refresh selection for bounded AVG queries."""

    name = "AVG"

    def __init__(self, epsilon: float = DEFAULT_EPSILON, force_exact: bool = False):
        self.epsilon = epsilon
        self.force_exact = force_exact
        self._sum = SumChooseRefresh(epsilon=epsilon, force_exact=force_exact)

    def without_predicate(
        self,
        table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """The §5.4 reduction to SUM over the whole table."""
        if column is None:
            raise TrappError("AVG CHOOSE_REFRESH requires an aggregation column")
        count = len(table.columns)
        if count == 0:
            return RefreshPlan.empty(), None
        # AVG width = SUM width / COUNT, so budget SUM at R * COUNT (§5.4).
        plan, _ = self._sum.without_predicate(table, column, max_width * count, cost)
        return plan, None

    def with_classification(
        self,
        table,
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ):
        """The Appendix F knapsack over a ``(T+, T?)`` position pair.

        Harvests SUM's §6.2 candidate vectors, then augments every T?
        weight with the slope penalty and solves at capacity ``L'_C · R``
        through the shared vector solver.  ``predicate`` applies the
        Appendix D refinement to T? bounds.
        """
        if column is None:
            raise TrappError("AVG CHOOSE_REFRESH requires an aggregation column")
        if math.isinf(max_width):
            return RefreshPlan.empty(), None
        certain_at, maybe_at = positions
        cv = self._sum._harvest(table, column, cost, positions, predicate)
        if len(cv) == 0:
            return RefreshPlan.empty(), None
        n_plus = len(certain_at)
        if n_plus == 0:
            # Degenerate Appendix F case (``L'_C = 0``, so every
            # candidate is a T? tuple): refresh them all, which decides
            # the predicate and makes COUNT exact.
            return (
                RefreshPlan(frozenset(cv.tids.tolist()), float(cv.costs.sum())),
                None,
            )
        l_count = float(n_plus)
        lo, hi = table.columns.endpoints(column)
        maybe_lo, maybe_hi = lo[maybe_at], hi[maybe_at]
        if predicate is not None and len(maybe_lo):
            maybe_lo, maybe_hi = restrict_endpoints(
                maybe_lo, maybe_hi, predicate, column
            )
        sum0 = Bound(
            float(lo[certain_at].sum() + np.minimum(maybe_lo, 0.0).sum()),
            float(hi[certain_at].sum() + np.maximum(maybe_hi, 0.0).sum()),
        )
        capacity = l_count * max_width
        slope = self._slope(sum0, l_count, max_width)
        if slope > 0.0 and len(cv) > n_plus:
            # Harvest order is [T+ …, T? …]; the slope penalty lands on
            # the T? tail, and the (width, tid) ordering is rebuilt so
            # the uniform-cost walk sees the augmented weights.
            widths = cv.widths.copy()
            widths[n_plus:] += slope
            cv = CandidateVectors(
                tids=cv.tids,
                widths=widths,
                costs=cv.costs,
                order=candidate_order(widths, cv.tids),
                cost_min=cv.cost_min,
                cost_max=cv.cost_max,
                cost_total=cv.cost_total,
                costs_integral=cv.costs_integral,
            )
        return self._sum._solve(cv, capacity), None

    # ------------------------------------------------------------------
    @staticmethod
    def _slope(sum0: Bound, l_count: float, max_width: float) -> float:
        """The Appendix F per-T?-tuple weight penalty.

        ``max(H'_S, -L'_S, H'_S - L'_S) / L'_C - R``; clamped at zero when a
        very loose constraint would make it negative (keeping a T? tuple can
        never *relax* the SUM budget).
        """
        numerator = max(sum0.hi, -sum0.lo, sum0.hi - sum0.lo)
        return max(0.0, numerator / l_count - max_width)


CHOOSE_AVG = AvgChooseRefresh()
