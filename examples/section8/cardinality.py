"""Delayed insert/delete propagation with bounded cardinality (§8.3).

The base architecture propagates every insertion and deletion to caches
immediately, which keeps COUNT exact but makes churn expensive.  §8.3
proposes bounding the *discrepancy* instead: a source may buffer up to
``max_pending`` membership changes per table before flushing them, and the
cache computes bounded answers that account for the pending-churn window.

:class:`ChurnBuffer` is the source-side buffer; :class:`churn_adjusted`
widens a cached aggregate bound to cover every buffered-churn possibility:

* COUNT gains ``[-pending_deletes, +pending_inserts]``;
* SUM gains the most extreme contributions unpropagated rows could make,
  which requires a declared per-table value domain ``[value_lo, value_hi]``
  (unknown rows must come from somewhere bounded — e.g. latency is known
  to lie in [0, 1000] ms);
* MIN/MAX extend toward the domain edge on the insert side only (deletes
  of unknown rows cannot make a cached MIN smaller, but they can remove
  the current minimum, pushing the true MIN up to the domain's edge —
  covered by the deletion term);
* AVG recombines the adjusted SUM and COUNT loosely.

This module trades churn traffic for answer width — exactly the knob
§8.3 describes — and the tests verify containment under arbitrary
buffered churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.aggregates.average import loose_avg_bound
from repro.core.bound import Bound
from repro.errors import TrappError

__all__ = ["PendingChurn", "ChurnBuffer", "churn_adjusted"]


@dataclass(frozen=True, slots=True)
class PendingChurn:
    """How many membership changes a cache has not yet heard about."""

    inserts: int = 0
    deletes: int = 0

    @property
    def total(self) -> int:
        return self.inserts + self.deletes


@dataclass(slots=True)
class ChurnBuffer:
    """Source-side buffer of unpropagated insertions/deletions.

    ``flush_callback`` receives the buffered changes when the buffer
    exceeds ``max_pending`` (or on explicit :meth:`flush`); in the full
    system it would send ``CardinalityChange`` messages.
    """

    max_pending: int = 10
    flush_callback: Callable[[list], None] | None = None
    _pending: list = field(init=False, default_factory=list)
    flushes: int = field(init=False, default=0)

    def record_insert(self, tid: int, values: dict) -> None:
        self._pending.append(("insert", tid, values))
        self._maybe_flush()

    def record_delete(self, tid: int) -> None:
        self._pending.append(("delete", tid, None))
        self._maybe_flush()

    def pending(self) -> PendingChurn:
        inserts = sum(1 for kind, _, _ in self._pending if kind == "insert")
        return PendingChurn(inserts=inserts, deletes=len(self._pending) - inserts)

    def flush(self) -> list:
        drained = list(self._pending)
        self._pending.clear()
        if drained:
            self.flushes += 1
            if self.flush_callback is not None:
                self.flush_callback(drained)
        return drained

    def _maybe_flush(self) -> None:
        if len(self._pending) > self.max_pending:
            self.flush()


def churn_adjusted(
    aggregate: str,
    cached_bound: Bound,
    churn: PendingChurn,
    cached_count: int,
    value_domain: Bound,
) -> Bound:
    """Widen ``cached_bound`` to cover every buffered-churn possibility.

    ``cached_bound`` is the bounded answer over the cache's current rows;
    ``cached_count`` is how many rows the cache currently holds (after the
    predicate, if any — every pending change is conservatively assumed to
    pass it); ``value_domain`` bounds the aggregation column's legal
    values.
    """
    if churn.total == 0:
        return cached_bound
    if not (math.isfinite(value_domain.lo) and math.isfinite(value_domain.hi)):
        raise TrappError(
            "delayed churn needs a finite value domain for the aggregation column"
        )
    name = aggregate.upper()
    ins, dels = churn.inserts, churn.deletes

    if name == "COUNT":
        return Bound(cached_bound.lo - dels, cached_bound.hi + ins)

    if name == "SUM":
        lo = cached_bound.lo
        hi = cached_bound.hi
        # Unseen inserts contribute anywhere in the domain...
        lo += ins * min(0.0, value_domain.lo)
        hi += ins * max(0.0, value_domain.hi)
        # ...and unseen deletes remove rows whose cached contribution we
        # cannot identify; removing a row changes the sum by -value.
        lo -= dels * max(0.0, value_domain.hi)
        hi -= dels * min(0.0, value_domain.lo)
        return Bound(lo, hi)

    if name == "MIN":
        lo = min(cached_bound.lo, value_domain.lo) if ins else cached_bound.lo
        # Deletes may remove every cached row at the minimum; the true MIN
        # can rise as far as the domain allows.
        hi = value_domain.hi if dels else cached_bound.hi
        return Bound(min(lo, hi), max(lo, hi))

    if name == "MAX":
        hi = max(cached_bound.hi, value_domain.hi) if ins else cached_bound.hi
        lo = value_domain.lo if dels else cached_bound.lo
        return Bound(min(lo, hi), max(lo, hi))

    if name == "AVG":
        # Recombine via the loose SUM/COUNT route over the adjusted parts.
        sum_est = Bound(
            cached_bound.lo * max(cached_count, 1),
            cached_bound.hi * max(cached_count, 1),
        )
        adj_sum = churn_adjusted("SUM", sum_est, churn, cached_count, value_domain)
        adj_count = churn_adjusted(
            "COUNT", Bound.exact(cached_count), churn, cached_count, value_domain
        )
        adj_count = Bound(max(0.0, adj_count.lo), max(0.0, adj_count.hi))
        loose = loose_avg_bound(adj_sum, adj_count)
        # The average can never leave the value domain.
        lo = max(loose.lo, value_domain.lo)
        hi = min(loose.hi, value_domain.hi)
        return Bound(min(lo, hi), max(lo, hi))

    raise TrappError(f"churn adjustment not defined for aggregate {aggregate!r}")
