"""The row-at-a-time TOP-n ``repro.extensions.topn`` used to be.

Membership re-sorts every other tuple's endpoints twice per tuple —
O(n² log n) — which is what makes it a readable statement of the
definition and an oracle for the array kernel.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bound import Bound
from repro.core.refresh.base import RefreshPlan
from repro.errors import TrappError
from repro.extensions.topn import TopNResult
from repro.storage.row import Row
from tests.oracle.row_protocol import CostFunc, plan_of, uniform_cost


def _nth_largest(values: Sequence[float], n: int) -> float:
    return sorted(values, reverse=True)[n - 1]


def bounded_top_n(rows: Sequence[Row], column: str, n: int) -> TopNResult:
    """Compute the bounded TOP-n over a column of bounded values."""
    if n < 1:
        raise TrappError(f"n must be at least 1, got {n}")
    if len(rows) < n:
        raise TrappError(f"TOP-{n} over only {len(rows)} tuples is undefined")

    lows = [row.bound(column).lo for row in rows]
    highs = [row.bound(column).hi for row in rows]
    nth_value = Bound(_nth_largest(lows, n), _nth_largest(highs, n))

    # A tuple is certainly in the top n iff its LOWER endpoint beats the
    # (n+1)-th largest UPPER endpoint (i.e. at most n-1 other tuples can
    # possibly exceed it).  It is possibly in the top n iff its UPPER
    # endpoint reaches the n-th largest LOWER endpoint.
    certain: set[int] = set()
    possible: set[int] = set()
    if len(rows) == n:
        certain = {row.tid for row in rows}
        possible = set(certain)
        return TopNResult(nth_value, frozenset(certain), frozenset(possible))

    for row in rows:
        b = row.bound(column)
        others_hi = sorted(
            (r.bound(column).hi for r in rows if r.tid != row.tid), reverse=True
        )
        # Count of others that can possibly beat this tuple.
        can_beat = sum(1 for h in others_hi if h > b.lo)
        if can_beat < n:
            certain.add(row.tid)
        others_lo = sorted(
            (r.bound(column).lo for r in rows if r.tid != row.tid), reverse=True
        )
        must_beat = sum(1 for l in others_lo if l >= b.hi)
        if must_beat < n:
            possible.add(row.tid)
    return TopNResult(nth_value, frozenset(certain), frozenset(possible))


def choose_refresh_top_n(
    rows: Sequence[Row],
    column: str,
    n: int,
    max_width: float,
    cost: CostFunc = uniform_cost,
) -> RefreshPlan:
    """Refresh set narrowing the n-th value's bound to ``max_width``.

    Analogue of CHOOSE_REFRESH_MAX: the guaranteed *lower* cutoff is the
    n-th largest lower endpoint; every tuple whose upper endpoint exceeds
    ``cutoff + max_width`` could leave the n-th value above the budget and
    must be refreshed (along with tuples straddling the cutoff from below
    whose lower endpoint is within the contested region).
    """
    if len(rows) < n:
        raise TrappError(f"TOP-{n} over only {len(rows)} tuples is undefined")
    lows = [row.bound(column).lo for row in rows]
    cutoff = _nth_largest(lows, n)
    chosen = [
        row
        for row in rows
        if row.bound(column).hi > cutoff + max_width
        and row.bound(column).width > 0
    ]
    return plan_of(chosen, cost)
