"""Knapsack solvers only the tests and goldens call.

:func:`solve_brute_force` is the optimality oracle the suite checks the
exact DP, Ibarra–Kim and the vector solver against; :func:`solve_greedy_ratio`
is the profit-density greedy Figure 5's golden measures as an ablation
baseline.  Neither plans a query: the planner's solvers are
``repro.core.knapsack``'s, whose item types and validation these share.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.core.knapsack import (
    KnapsackItem,
    KnapsackSolution,
    _split_free_items,
    _validate,
)
from repro.errors import OptimizerError

__all__ = ["solve_brute_force", "solve_greedy_ratio"]


def solve_greedy_ratio(
    items: Sequence[KnapsackItem], capacity: float
) -> KnapsackSolution:
    """Classic profit/weight-density greedy with the best-single fallback.

    Guarantees at least half the optimal profit; included as an ablation
    baseline against the Ibarra–Kim scheme (not used by the paper).
    """
    _validate(items, capacity)
    contenders, always_in, _ = _split_free_items(items, capacity)
    chosen = set(always_in)
    remaining = capacity
    greedy_profit = 0.0
    for item in sorted(
        contenders, key=lambda i: (-(i.profit / i.weight), i.item_id)
    ):
        if item.weight <= remaining:
            chosen.add(item.item_id)
            remaining -= item.weight
            greedy_profit += item.profit
    # The 2-approximation requires comparing with the single best item.
    best_single = max(contenders, key=lambda i: i.profit, default=None)
    if best_single is not None and best_single.profit > greedy_profit:
        chosen = set(always_in) | {best_single.item_id}
    return KnapsackSolution.of(items, chosen)


def solve_brute_force(
    items: Sequence[KnapsackItem], capacity: float
) -> KnapsackSolution:
    """Exhaustive search over all subsets; the optimality oracle for tests.

    Exponential — callers must keep instances small (≤ ~20 contenders).
    """
    _validate(items, capacity)
    contenders, always_in, _ = _split_free_items(items, capacity)
    if len(contenders) > 22:
        raise OptimizerError(
            f"brute force limited to 22 contenders, got {len(contenders)}"
        )
    best_ids: tuple[int, ...] = ()
    best_profit = -1.0
    for r in range(len(contenders) + 1):
        for combo in combinations(contenders, r):
            weight = sum(i.weight for i in combo)
            if weight > capacity:
                continue
            profit = sum(i.profit for i in combo)
            if profit > best_profit:
                best_profit = profit
                best_ids = tuple(i.item_id for i in combo)
    return KnapsackSolution.of(items, set(best_ids) | set(always_in))
