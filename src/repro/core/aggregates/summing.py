"""Bounded SUM evaluator (paper §5.2 and §6.2).

Without a predicate, the extremes of a sum occur when every value sits at
the same end of its bound::

    SUM: [ Σ_i L_i , Σ_i H_i ]

With a predicate, a ``T?`` tuple might turn out not to satisfy it and
contribute nothing, so only *negative* lower endpoints can drag the lower
extreme down, and only *positive* upper endpoints can push the upper
extreme up::

    SUM: [ Σ_{T+} L_i + Σ_{T? ∧ L_i < 0} L_i ,
           Σ_{T+} H_i + Σ_{T? ∧ H_i > 0} H_i ]

Equivalently, each T? bound is first extended to include zero
(:meth:`repro.core.bound.Bound.extend_to_zero`).
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates.base import register
from repro.core.bound import Bound
from repro.errors import TrappError
from repro.predicates.batch import ColumnarClassification

__all__ = ["SumAggregate", "SUM"]


class SumAggregate:
    """Bounded SUM."""

    name = "SUM"
    needs_column = True

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        if column is None:
            raise TrappError("SUM requires an aggregation column")
        lo, hi = store.endpoints(column)
        return Bound(float(lo.sum()), float(hi.sum()))

    def bound_with_classification(
        self, cc: ColumnarClassification, column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("SUM requires an aggregation column")
        lo = cc.plus_lo.sum() + np.minimum(cc.maybe_lo, 0.0).sum()
        hi = cc.plus_hi.sum() + np.maximum(cc.maybe_hi, 0.0).sum()
        return Bound(float(lo), float(hi))


SUM = register(SumAggregate())
