"""Bounded COUNT evaluator (paper §5.3 and §6.3).

Without a predicate, COUNT is the cached table's cardinality: the
architecture propagates insertions and deletions to caches immediately
(§3), so the cached cardinality always equals the master cardinality and
the answer is exact.

With a predicate, every T+ tuple certainly counts and every T? tuple might::

    COUNT: [ |T+| , |T+| + |T?| ]
"""

from __future__ import annotations

from repro.core.aggregates.base import register
from repro.core.bound import Bound

__all__ = ["CountAggregate", "COUNT"]


class CountAggregate:
    """Bounded COUNT (``COUNT(*)``; no aggregation column)."""

    name = "COUNT"
    needs_column = False

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        return Bound.exact(len(store))

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        return Bound(cc.n_plus, cc.n_plus + cc.n_maybe)


COUNT = register(CountAggregate())
