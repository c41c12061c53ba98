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
from typing import Sequence

import numpy as np

from repro.core.refresh.base import (
    CostFunc,
    RefreshPlan,
    candidate_costs,
    uniform_cost,
)
from repro.predicates.classify import Classification
from repro.storage.columnar import candidate_positions
from repro.storage.row import Row

__all__ = ["CountChooseRefresh", "CHOOSE_COUNT"]


class CountChooseRefresh:
    """Optimal refresh selection for bounded COUNT queries."""

    name = "COUNT"

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        # Cardinality is exact at the cache; nothing to refresh.
        return RefreshPlan.empty()

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        uncertain = len(classification.maybe)
        if math.isinf(max_width):
            needed = 0
        else:
            needed = max(0, math.ceil(uncertain - max_width - 1e-9))
        if needed == 0:
            return RefreshPlan.empty()
        cheapest = sorted(classification.maybe, key=lambda row: (cost(row), row.tid))
        return RefreshPlan.of(cheapest[:needed], cost)

    # ------------------------------------------------------------------
    def without_predicate_columnar(
        self,
        table,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ):
        """COUNT without a predicate is always exact."""
        return RefreshPlan.empty(), None

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
        """Pick the cheapest T? tuples straight off the column arrays."""
        _, maybe_at = candidate_positions(certain, possible, positions)
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
