"""Refresh selection for join queries (paper §7).

The paper observes that choosing refresh tuples under joins is
"significantly more difficult": each joined tuple aggregates several base
tuples (any subset of which could be refreshed), and one base tuple can
feed many joined tuples, so refresh benefits interact.  It gives no
optimal algorithm and reports investigating heuristics.  This module
takes one of two routes, read from the statement:

* **Batch** — the join condition reads no bounded column of any joined
  table (no condition at all counts) and the aggregate is SUM, AVG, MIN
  or MAX.  Then no joined tuple is in T?, and the answer depends on the
  base tuples of the table that owns the aggregated column only, each
  counted once per joined tuple it feeds (its *fan-out*).  The answer's
  width is ``Σₙ fanout(n)·w(n)``, so the problem *is* §5's: SUM is the
  knapsack with weights fan-out × width, AVG the same knapsack at
  capacity ``R·|joined|`` (COUNT is exact), and MIN / MAX the
  single-table forced set over the base tuples that feed any joined
  tuple (MIN over a multiset is MIN over its support).  One plan per
  round, priced and solved by the single-table choosers; a recheck that
  misses plans again under the executor's re-plan rule.  COUNT is exact
  and never plans.
* **Greedy** — every other join (a condition over a bounded column, or
  MEDIAN): the iterative one-tuple heuristic the paper's §8.2 discussion
  motivates.  While the answer is too wide, score every refreshable base
  tuple by an estimate of the uncertainty it feeds into the answer,
  divided by its refresh cost; refresh the best scorer; re-join and
  repeat.  The estimate charges a base tuple with (a) the
  aggregation-column bound width it contributes through every surviving
  joined tuple and (b) the T? membership of those joined tuples.  Each
  round is a one-tuple round of the executor's refresh loop, which
  offers a base tuple at most once — so the loop ends within the tables'
  size.

Either way every plan names *one* base table and is surfaced through the
executor's ``PlannedRefresh`` generator protocol
(:func:`join_steps`): a refresh scheduler can merge a join query's
demand on table T with every single-table query's plans for T — per
source, per cache group — exactly as it coalesces §4 queries, and
:func:`~repro.core.executor.drive_steps` drives it serially.

A round is array work over the tables' ``ColumnStore`` endpoint columns:
:func:`repro.joins.classify.join_pairs` names the surviving joined tuples
by position, the aggregate bounds the gathered endpoints, and per-table
``bincount``s give each base tuple's fan-out and benefit.  Nothing but
the tuples already requested is kept from one round to the next.  The
row-at-a-time heuristic the greedy route replaced lives in
``tests/oracle/row_join.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.bound import Bound
from repro.core.constraints import PrecisionConstraint
from repro.core.executor import ExecutionSteps, PlannedRefresh, refresh_steps
from repro.core.refresh import CHOOSE_SUM, get_choose_refresh
from repro.core.refresh.base import (
    CostFunc,
    RefreshPlan,
    candidate_costs,
    uniform_cost,
)
from repro.joins.classify import ColumnKey, JoinedColumns, join_pairs
from repro.predicates.ast import Predicate, columns_of
from repro.predicates.batch import ColumnarClassification
from repro.storage.table import Table

__all__ = ["join_steps"]

#: Aggregates a join whose condition reads only exact columns plans as
#: one §5 batch; COUNT is exact there and never plans.
_BATCHED = ("SUM", "AVG", "MIN", "MAX")


def join_steps(
    tables: Sequence[Table],
    aggregate: str,
    column: tuple[str, str] | None,
    constraint: PrecisionConstraint | float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """The §7 refresh selection as a resumable generator.

    Runs the executor's loop (:func:`~repro.core.executor.refresh_steps`)
    with a batch ``plan`` when the join condition reads no bounded
    column and the aggregate is in :data:`_BATCHED`, with one-tuple
    greedy rounds otherwise.  Each round's selection is yielded as a
    :class:`~repro.core.executor.PlannedRefresh` against one base
    table — the per-table decomposition a cross-query scheduler needs
    to merge join demand with single-table plans.  The driver applies
    each plan (possibly coalesced with other queries') and sends back
    the effective :class:`RefreshPlan`; the round then re-joins and
    re-classifies, so refreshes landed by concurrent queries are
    picked up before the next selection.  A greedy round offers a base
    tuple once; a round with tuples unreached is answered degraded.
    Returns the :class:`~repro.core.answer.BoundedAnswer` via
    ``StopIteration.value``.
    """
    join = _Join(tables, cost)
    spec = get_aggregate(aggregate)
    agg_column = column[1] if column is not None else None
    round_ = None

    def bound() -> Bound:
        nonlocal round_
        joined, maybe = join_pairs(join.tables, predicate)
        key = (
            joined.column_key(agg_column, column[0])
            if column is not None
            else None
        )
        round_ = joined, maybe, key
        pair = np.flatnonzero(np.logical_not(maybe)), np.flatnonzero(maybe)
        return spec.bound_with_classification(
            ColumnarClassification.from_positions(joined, pair, key),
            agg_column,
        )

    def pick(bound, max_width, requested) -> PlannedRefresh | None:
        best = join.best_candidate(*round_, requested)
        if best is None:
            return None
        k, tid, tid_cost = best
        plan = RefreshPlan(frozenset((tid,)), tid_cost)
        return PlannedRefresh(join.tables[k], plan, max_width, aggregate)

    def plan(bound, max_width) -> PlannedRefresh:
        joined, _, (k, name) = round_
        return join.batch_plan(spec.name, joined, k, name, bound, max_width)

    batch = spec.name in _BATCHED and not join.reads_bounded(predicate)
    return (
        yield from refresh_steps(
            bound, constraint, plan=plan if batch else None, pick=pick
        )
    )


class _Join:
    """The joined tables and the price of their base tuples, behind
    :func:`join_steps`' batch plan and greedy pick."""

    def __init__(self, tables: Sequence[Table], cost: CostFunc) -> None:
        self.tables = list(tables)
        self.cost = cost

    def reads_bounded(self, predicate: Predicate | None) -> bool:
        """Whether the join condition names a column some joined table
        bounds — only then can a joined tuple be in T?."""
        names = columns_of(predicate) if predicate is not None else ()
        return any(
            name in table.schema and table.schema[name].is_bounded
            for table in self.tables
            for name in names
        )

    def batch_plan(
        self,
        aggregate: str,
        joined: JoinedColumns,
        k: int,
        column: str,
        bound: Bound,
        max_width: float,
    ) -> PlannedRefresh:
        """One §5 plan over the base tuples of ``tables[k]``, the table
        owning the aggregated column, for a round with nothing in T?."""
        table = self.tables[k]
        fanout = np.bincount(joined.index[k], minlength=len(table.columns))
        at = np.flatnonzero(fanout)
        if aggregate in ("MIN", "MAX"):
            chosen, _ = get_choose_refresh(aggregate).with_classification(
                table, (at, at[:0]), column, max_width, self.cost
            )
            return PlannedRefresh(table, chosen, max_width, aggregate)
        if aggregate == "AVG":  # COUNT is |joined|, exact: divide it out
            chosen, _ = CHOOSE_SUM.over_multiset(
                table, at, fanout[at], column, max_width * len(joined), self.cost
            )
            return PlannedRefresh(table, chosen, max_width, aggregate)
        chosen, candidates = CHOOSE_SUM.over_multiset(
            table, at, fanout[at], column, max_width, self.cost
        )
        return PlannedRefresh(
            table, chosen, max_width, aggregate, candidates, bound.width - max_width
        )

    # ------------------------------------------------------------------
    def best_candidate(
        self,
        joined: JoinedColumns,
        maybe: np.ndarray,
        key: ColumnKey | None,
        requested: dict[Table, set[int]],
    ) -> tuple[int, int, float] | None:
        """Highest benefit/cost base tuple not yet requested.

        Returns ``(table position, tuple id, refresh cost)``.  One
        candidate per round keeps the refresh sequence identical to the
        pre-generator heuristic (benefit estimates overcount interacting
        widths, so bulk selection overshoots); the per-table
        decomposition happens at the yield, not in the selection.

        A base tuple's benefit is the sum, over the surviving joined
        tuples it feeds, of the aggregation-column width (a T? bound
        extended to zero) plus one for T? membership.  ``bincount``
        adds in joined-tuple order.
        """
        score = maybe.astype(np.float64)
        if key is not None:
            lo, hi = joined.endpoints(key)
            lo = np.where(maybe, np.minimum(lo, 0.0), lo)
            hi = np.where(maybe, np.maximum(hi, 0.0), hi)
            with np.errstate(invalid="ignore"):  # [inf, inf] has width 0
                width = hi - lo
            width[lo == hi] = 0.0
            score = width + score
        scored = score > 0
        score = score[scored]

        # Highest ratio wins, then the smallest tuple id; the same id at
        # the same ratio in two tables goes to the base tuple the scored
        # joined tuples mention first, the left table within one of them.
        best_rank: tuple[float, int, int, int] | None = None
        best = None
        for k, table in enumerate(self.tables):
            store = table.columns
            feeds = joined.index[k][scored]
            benefit = np.bincount(feeds, weights=score, minlength=len(store))
            tids = store.sorted_tids()
            wide = np.zeros(len(store), dtype=bool)
            for bounded in table.schema.bounded_columns:
                if not store.column_exact(bounded.name):
                    column_lo, column_hi = store.endpoints(bounded.name)
                    wide |= column_lo != column_hi
            eligible = wide & (benefit > 0)
            if requested.get(table):
                eligible &= ~np.isin(tids, list(requested[table]))
            at = np.flatnonzero(eligible)
            if not len(at):
                continue
            costs = candidate_costs(table, self.cost, at)
            with np.errstate(over="ignore"):
                ratio = benefit[at] / np.maximum(costs, 1e-12)
            # Positions ascend with tuple id: the first maximum is the
            # smallest tid among equal ratios.
            j = int(np.argmax(ratio))
            tid = int(tids[at[j]])
            first_mention = int(np.argmax(feeds == at[j]))
            rank = (float(ratio[j]), -tid, -first_mention, -k)
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best = (k, tid, float(costs[j]))
        return best
