"""Bounded COUNT evaluator (paper §5.3 and §6.3).

Without a predicate, COUNT is the cached table's cardinality: the
architecture propagates insertions and deletions to caches immediately
(§3), so the cached cardinality always equals the master cardinality and
the answer is exact.

With a predicate, every T+ tuple certainly counts and every T? tuple might::

    COUNT: [ |T+| , |T+| + |T?| ]
"""

from __future__ import annotations

from typing import Sequence

from repro.core.aggregates.base import register
from repro.core.bound import Bound
from repro.predicates.classify import Classification
from repro.storage.row import Row

__all__ = ["CountAggregate", "COUNT"]


class CountAggregate:
    """Bounded COUNT (``COUNT(*)``; no aggregation column)."""

    name = "COUNT"
    needs_column = False

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        return Bound.exact(len(rows))

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        plus = len(classification.plus)
        maybe = len(classification.maybe)
        return Bound(plus, plus + maybe)

    # -- over the column arrays (what the executor calls) ---------------
    def bound_without_predicate_columnar(self, store, column: str | None) -> Bound:
        return Bound.exact(len(store))

    def bound_with_classification_columnar(self, cc, column: str | None) -> Bound:
        return Bound(cc.n_plus, cc.n_plus + cc.n_maybe)


COUNT = register(CountAggregate())
