"""CHOOSE_REFRESH for MIN and MAX (paper §5.1, §6.1, Appendices B/C).

For MIN without a predicate, the refresh set is *forced*: a tuple whose
lower endpoint lies below ``min_k(H_k) - R`` could, if left unrefreshed,
leave the answer wider than ``R`` in the worst case, and Appendix B proves
every such tuple must appear in every feasible solution — so the optimal
set is exactly

    ``TR = { t_i : L_i < min_k(H_k) - R }``

independent of refresh costs.  With a predicate, the threshold uses the
guaranteed upper bound ``min_{T+}(H_k) - R`` and candidates range over
``T+ ∪ T?`` (refreshing a T? tuple that drops into T− never hurts the
bound).  MAX is the mirror image.

Both run in ``O(n)`` with a plain scan, or sublinear over the column
store's sorted endpoint orders (``ColumnStore.endpoint_order``, the
paper's §5.1 endpoint indexes), exposed via ``without_predicate_indexed``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.refresh.base import CostFunc, RefreshPlan, plan_at, uniform_cost
from repro.errors import TrappError
from repro.predicates.batch import restrict_endpoints
from repro.storage.table import Table

__all__ = ["MinChooseRefresh", "MaxChooseRefresh", "CHOOSE_MIN", "CHOOSE_MAX"]


def _require_column(name: str, column: str | None) -> str:
    if column is None:
        raise TrappError(f"{name} CHOOSE_REFRESH requires an aggregation column")
    return column


_NONE_CHOSEN = np.empty(0, dtype=np.int64)


class MinChooseRefresh:
    """Optimal refresh selection for bounded MIN queries."""

    name = "MIN"

    def without_predicate(
        self,
        table: Table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """Appendix B's forced set as one array sweep."""
        column = _require_column(self.name, column)
        lo, hi = table.columns.endpoints(column)
        threshold = (float(hi.min()) if len(hi) else math.inf) - max_width
        if math.isnan(threshold):  # inf budget against an empty/unbounded table
            chosen = _NONE_CHOSEN
        else:
            chosen = np.flatnonzero(lo < threshold)
        return plan_at(table, cost, chosen), None

    def with_classification(
        self,
        table: Table,
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ):
        """§6.1 threshold over T+ ∪ T?, Appendix-D-refined T? bounds."""
        column = _require_column(self.name, column)
        plus_at, maybe_at = positions
        lo, hi = table.columns.endpoints(column)
        min_hi_plus = float(hi[plus_at].min()) if len(plus_at) else math.inf
        threshold = min_hi_plus - max_width
        maybe_lo = lo[maybe_at]
        if predicate is not None and len(maybe_lo):
            maybe_lo, _ = restrict_endpoints(
                maybe_lo, hi[maybe_at], predicate, column
            )
        if math.isnan(threshold):
            chosen = _NONE_CHOSEN
        else:
            chosen = np.concatenate(
                [plus_at[lo[plus_at] < threshold], maybe_at[maybe_lo < threshold]]
            )
        return plan_at(table, cost, chosen), None

    def without_predicate_indexed(
        self,
        table: Table,
        column: str,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        """Index-accelerated variant: ``O(log n + |TR|)``.

        ``min_k(H_k)`` is the first key of the column's ascending
        upper-endpoint order, and the forced set is the run of the
        lower-endpoint order below the threshold — one ``searchsorted`` —
        matching the sublinear bound claimed in §5.1.  The plan is the
        one :meth:`without_predicate` sweeps the column for.
        """
        store = table.columns
        upper = store.endpoint_order(column, "hi").keys
        threshold = (float(upper[0]) if len(upper) else math.inf) - max_width
        if math.isnan(threshold):
            return RefreshPlan.empty()
        lower = store.endpoint_order(column, "lo")
        cut = np.searchsorted(lower.keys, threshold, side="left")
        return plan_at(table, cost, np.sort(lower.positions[:cut]))


class MaxChooseRefresh:
    """Optimal refresh selection for bounded MAX queries (Appendix C)."""

    name = "MAX"

    def without_predicate(
        self,
        table: Table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """Appendix C's forced set as one array sweep (MIN's mirror)."""
        column = _require_column(self.name, column)
        lo, hi = table.columns.endpoints(column)
        threshold = (float(lo.max()) if len(lo) else -math.inf) + max_width
        if math.isnan(threshold):
            chosen = _NONE_CHOSEN
        else:
            chosen = np.flatnonzero(hi > threshold)
        return plan_at(table, cost, chosen), None

    def with_classification(
        self,
        table: Table,
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ):
        column = _require_column(self.name, column)
        plus_at, maybe_at = positions
        lo, hi = table.columns.endpoints(column)
        max_lo_plus = float(lo[plus_at].max()) if len(plus_at) else -math.inf
        threshold = max_lo_plus + max_width
        maybe_hi = hi[maybe_at]
        if predicate is not None and len(maybe_hi):
            _, maybe_hi = restrict_endpoints(
                lo[maybe_at], maybe_hi, predicate, column
            )
        if math.isnan(threshold):
            chosen = _NONE_CHOSEN
        else:
            chosen = np.concatenate(
                [plus_at[hi[plus_at] > threshold], maybe_at[maybe_hi > threshold]]
            )
        return plan_at(table, cost, chosen), None

    def without_predicate_indexed(
        self,
        table: Table,
        column: str,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        """Index-accelerated variant mirroring MIN's."""
        store = table.columns
        lower = store.endpoint_order(column, "lo").keys
        threshold = (float(lower[-1]) if len(lower) else -math.inf) + max_width
        if math.isnan(threshold):
            return RefreshPlan.empty()
        upper = store.endpoint_order(column, "hi")
        cut = np.searchsorted(upper.keys, threshold, side="right")
        return plan_at(table, cost, np.sort(upper.positions[cut:]))


CHOOSE_MIN = MinChooseRefresh()
CHOOSE_MAX = MaxChooseRefresh()
