"""CHOOSE_REFRESH for COUNT (paper §5.3 and §6.3).

Without a predicate, COUNT is always exact (cardinality is replicated
eagerly), so the refresh set is empty.

With a predicate, the answer width equals ``|T?|`` and refreshing any T?
tuple is guaranteed to move it out of T? (its bounds collapse, deciding the
predicate).  The optimal plan is therefore the ``ceil(|T?| - R)`` *cheapest*
T? tuples — a selection problem solvable by sorting (``O(n log n)``) or
sublinearly with a cost index.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.refresh.base import (
    CostFunc,
    RefreshPlan,
    candidate_costs,
    uniform_cost,
)

__all__ = ["CountChooseRefresh", "CHOOSE_COUNT"]


class CountChooseRefresh:
    """Optimal refresh selection for bounded COUNT queries."""

    name = "COUNT"

    def without_predicate(
        self,
        table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """Cardinality is exact at the cache; nothing to refresh."""
        return RefreshPlan.empty(), None

    def with_classification(
        self,
        table,
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ):
        """Pick the cheapest T? tuples straight off the column arrays."""
        _, maybe_at = positions
        uncertain = len(maybe_at)
        if math.isinf(max_width):
            needed = 0
        else:
            needed = max(0, math.ceil(uncertain - max_width - 1e-9))
        if needed == 0:
            return RefreshPlan.empty(), None
        tids = table.columns.sorted_tids()[maybe_at]
        maybe_costs = candidate_costs(table, cost, maybe_at)
        pick = np.lexsort((tids, maybe_costs))[:needed]
        return (
            RefreshPlan(
                frozenset(tids[pick].tolist()), float(maybe_costs[pick].sum())
            ),
            None,
        )


CHOOSE_COUNT = CountChooseRefresh()
