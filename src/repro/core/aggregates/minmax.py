"""Bounded MIN and MAX evaluators (paper §5.1, §6.1, Appendix C).

Without a predicate::

    MIN: [ min_i L_i , min_i H_i ]        MAX: [ max_i L_i , max_i H_i ]

With a predicate, a ``T?`` tuple might or might not contribute, so the two
endpoints range over different tuple sets::

    MIN: [ min_{T+ ∪ T?} L_i , min_{T+} H_i ]
    MAX: [ max_{T+} L_i      , max_{T+ ∪ T?} H_i ]

Empty tuple sets follow the paper's convention ``min ∅ = +inf`` and
``max ∅ = -inf``, so e.g. a MIN over an empty T+ has upper endpoint +inf
(nothing is guaranteed to be in the result set, so no finite upper bound on
the minimum exists).
"""

from __future__ import annotations

import math

from repro.core.aggregates.base import register
from repro.core.bound import Bound
from repro.errors import TrappError

__all__ = ["MinAggregate", "MaxAggregate", "MIN", "MAX"]


def _require_column(name: str, column: str | None) -> str:
    if column is None:
        raise TrappError(f"{name} requires an aggregation column")
    return column


class MinAggregate:
    """Bounded MIN."""

    name = "MIN"
    needs_column = True

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        column = _require_column(self.name, column)
        lo, hi = store.endpoints(column)
        return Bound(_min_of(lo), _min_of(hi))

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        _require_column(self.name, column)
        # An empty T+ leaves the upper endpoint unbounded (+inf) while T?
        # tuples may still pull the lower endpoint down; lo <= hi holds
        # because each T+ tuple contributes to both minima.
        return Bound(
            min(_min_of(cc.plus_lo), _min_of(cc.maybe_lo)),
            _min_of(cc.plus_hi),
        )


class MaxAggregate:
    """Bounded MAX (symmetric to MIN, Appendix C)."""

    name = "MAX"
    needs_column = True

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        column = _require_column(self.name, column)
        lo, hi = store.endpoints(column)
        return Bound(_max_of(lo), _max_of(hi))

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        _require_column(self.name, column)
        return Bound(
            _max_of(cc.plus_lo),
            max(_max_of(cc.plus_hi), _max_of(cc.maybe_hi)),
        )


def _min_of(values) -> float:
    """``min`` with the paper's empty-set convention ``min ∅ = +inf``."""
    return float(values.min()) if values.size else math.inf


def _max_of(values) -> float:
    """``max`` with the paper's empty-set convention ``max ∅ = -inf``."""
    return float(values.max()) if values.size else -math.inf


MIN = register(MinAggregate())
MAX = register(MaxAggregate())
