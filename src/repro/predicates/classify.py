"""Partitioning tuples into T+, T?, T− under a selection predicate (§6).

Given a predicate ``P`` over a cached table whose columns may hold bounded
values, every tuple falls into exactly one of three disjoint sets:

* ``T+`` — guaranteed to satisfy ``P`` for every realization of its bounds
  (``Certain(P)`` holds);
* ``T−`` — cannot possibly satisfy ``P`` (``Possible(P)`` fails);
* ``T?`` — everything else: some realizations satisfy ``P``, others do not.

Two equivalent implementations are provided and cross-checked in tests:

* :func:`classify` — evaluates the symbolic endpoint predicates produced by
  :mod:`repro.predicates.transforms` (the paper's Appendix D route, which a
  host DBMS could optimize with endpoint indexes);
* :func:`classify_trilean` — evaluates the predicate directly in
  three-valued logic over the row's interval values.

Both also expose the paper's §D refinement: when the selection predicate
constrains the *aggregation column itself*, the bounds of ``T?`` tuples can
be shrunk to the predicate-consistent sub-interval before aggregation.

Array-at-a-time counterparts of both :func:`classify` and
:func:`restrict_bound` live in :mod:`repro.predicates.batch`; they sweep a
table's columnar mirror instead of looping over rows and are what the
executor uses; the functions here serve callers that hold row lists
(GROUP BY, the iterative driver) and the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.bound import Bound, Trilean
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.predicates.eval import evaluate_trilean
from repro.predicates.transforms import certain, evaluate_endpoint, possible
from repro.storage.row import Row

__all__ = ["Classification", "classify", "classify_trilean", "restrict_bound"]


@dataclass(slots=True)
class Classification:
    """The T+/T?/T− partition of a set of rows under one predicate."""

    plus: list[Row] = field(default_factory=list)
    maybe: list[Row] = field(default_factory=list)
    minus: list[Row] = field(default_factory=list)

    @property
    def plus_or_maybe(self) -> list[Row]:
        """``T+ ∪ T?`` — every tuple that might contribute to the answer."""
        return self.plus + self.maybe

    def counts(self) -> tuple[int, int, int]:
        """``(|T+|, |T?|, |T−|)``."""
        return (len(self.plus), len(self.maybe), len(self.minus))

    def label_of(self, tid: int) -> str:
        """Human-readable label (``T+``, ``T?``, ``T-``) for one tuple id."""
        for rows, label in ((self.plus, "T+"), (self.maybe, "T?"), (self.minus, "T-")):
            if any(r.tid == tid for r in rows):
                return label
        raise KeyError(f"tuple #{tid} was not classified")

    def __repr__(self) -> str:
        p, q, m = self.counts()
        return f"Classification(T+={p}, T?={q}, T-={m})"


def classify(rows: Iterable[Row], predicate: Predicate) -> Classification:
    """Partition ``rows`` via the symbolic Possible/Certain transforms."""
    certain_p = certain(predicate)
    possible_p = possible(predicate)
    result = Classification()
    for row in rows:
        if evaluate_endpoint(certain_p, row):
            result.plus.append(row)
        elif evaluate_endpoint(possible_p, row):
            result.maybe.append(row)
        else:
            result.minus.append(row)
    return result


def classify_trilean(rows: Iterable[Row], predicate: Predicate) -> Classification:
    """Partition ``rows`` via direct three-valued evaluation."""
    result = Classification()
    for row in rows:
        verdict = evaluate_trilean(predicate, row)
        if verdict is Trilean.TRUE:
            result.plus.append(row)
        elif verdict is Trilean.MAYBE:
            result.maybe.append(row)
        else:
            result.minus.append(row)
    return result


def restrict_bound(bound: Bound, predicate: Predicate, column: str) -> Bound:
    """Shrink ``bound`` to the sub-interval consistent with ``predicate``.

    Implements the Appendix D refinement: when the selection predicate
    always restricts the aggregation column (e.g. aggregating ``latency``
    under ``latency > 10``), a ``T?`` tuple's bound can be narrowed to the
    part that could actually contribute — ``[max(lo, 10), hi]`` in the
    example — before computing the bounded answer or choosing refresh
    tuples.  Only conjunctions of simple ``column OP constant`` comparisons
    are exploited; any other structure leaves the bound unchanged (which is
    always sound).
    """
    return _restrict(bound, predicate, column)


def _restrict(bound: Bound, predicate: Predicate, column: str) -> Bound:
    if isinstance(predicate, And):
        return _restrict(_restrict(bound, predicate.left, column), predicate.right, column)
    if isinstance(predicate, Comparison):
        cmp = predicate.normalized()
        left, right = cmp.left, cmp.right
        if (
            isinstance(left, ColumnRef)
            and left.column == column
            and left.scale == 1.0
            and left.offset == 0.0
            and isinstance(right, Literal)
            and not isinstance(right.value, str)
        ):
            k = float(right.value)
            if cmp.op in (">", ">="):
                lo = min(max(bound.lo, k), bound.hi)
                return Bound(lo, bound.hi)
            if cmp.op in ("<", "<="):
                hi = max(min(bound.hi, k), bound.lo)
                return Bound(bound.lo, hi)
            if cmp.op == "=" and bound.contains(k):
                return Bound.exact(k)
        return bound
    # Or / Not / TruePredicate: no sound single-interval restriction.
    return bound
