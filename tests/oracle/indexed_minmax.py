"""§5.1's sublinear MIN/MAX CHOOSE_REFRESH over the endpoint indexes.

Appendix B's forced set for MIN is ``{t_i : L_i < min_k(H_k) - R}``.
Over the column store's sorted endpoint orders
(``ColumnStore.endpoint_order``) that is ``O(log n + |TR|)``:
``min_k(H_k)`` is the first key of the ascending upper-endpoint order,
and the forced set is the run of the lower-endpoint order below the
threshold — one ``searchsorted``.  MAX (Appendix C) is the mirror image.
``MinChooseRefresh`` / ``MaxChooseRefresh.without_predicate`` sweep the
column instead; these must return the plan they return.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.refresh.base import CostFunc, RefreshPlan, plan_at, uniform_cost
from repro.storage.table import Table

__all__ = ["indexed_min_plan", "indexed_max_plan"]


def indexed_min_plan(
    table: Table, column: str, max_width: float, cost: CostFunc = uniform_cost
) -> RefreshPlan:
    """MIN's forced set from the endpoint indexes."""
    store = table.columns
    upper = store.endpoint_order(column, "hi").keys
    threshold = (float(upper[0]) if len(upper) else math.inf) - max_width
    if math.isnan(threshold):
        return RefreshPlan.empty()
    lower = store.endpoint_order(column, "lo")
    cut = np.searchsorted(lower.keys, threshold, side="left")
    return plan_at(table, cost, np.sort(lower.positions[:cut]))


def indexed_max_plan(
    table: Table, column: str, max_width: float, cost: CostFunc = uniform_cost
) -> RefreshPlan:
    """MAX's forced set from the endpoint indexes (MIN's mirror)."""
    store = table.columns
    lower = store.endpoint_order(column, "lo").keys
    threshold = (float(lower[-1]) if len(lower) else -math.inf) + max_width
    if math.isnan(threshold):
        return RefreshPlan.empty()
    upper = store.endpoint_order(column, "hi")
    cut = np.searchsorted(upper.keys, threshold, side="right")
    return plan_at(table, cost, np.sort(upper.positions[cut:]))
