"""Heuristic refresh selection for join queries (paper §7).

The paper observes that choosing refresh tuples under joins is
"significantly more difficult": each joined tuple aggregates several base
tuples (any subset of which could be refreshed), and one base tuple can
feed many joined tuples, so refresh benefits interact.  No optimal
algorithm is given — the authors report investigating heuristics — so this
module implements the natural *iterative greedy* heuristic the paper's
§8.2 discussion motivates:

1. index and classify the joined tuples, compute the bounded answer;
2. while the answer is too wide, score every refreshable base tuple by an
   estimate of how much uncertainty it feeds into the answer, divided by
   its refresh cost; refresh the best scorer;
3. recompute (refreshed base values reclassify joined tuples) and repeat.

The benefit estimate charges a base tuple with (a) the aggregation-column
bound width it contributes through every surviving joined tuple and (b)
the classification uncertainty (T? membership) of those joined tuples.
Each round is a one-tuple round of the executor's refresh loop, which
offers a base tuple at most once — so the loop ends within the tables'
size.

Each round's selection is *decomposed into one per-table refresh plan*
and surfaced through the executor's ``PlannedRefresh`` generator protocol
(:meth:`JoinRefreshHeuristic.execute_steps`): a refresh scheduler can
merge a join query's demand on table T with every single-table query's
plans for T — per source, per cache group — exactly as it coalesces §4
queries.  :meth:`JoinRefreshHeuristic.execute` is the serial driver.

A round is array work over the tables' ``ColumnStore`` endpoint columns:
:func:`repro.joins.classify.join_pairs` names the surviving joined tuples
by position, the aggregate bounds the gathered endpoints, and per-table
``bincount``s total each base tuple's benefit.  Nothing but the tuples
already requested is kept from one round to the next.  The row-at-a-time
heuristic this replaces lives in ``tests/oracle/row_join.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.executor import (
    ExecutionSteps,
    NullRefreshProvider,
    PlannedRefresh,
    RefreshProvider,
    drive_steps,
    refresh_steps,
)
from repro.core.refresh.base import (
    CostFunc,
    RefreshPlan,
    candidate_costs,
    uniform_cost,
)
from repro.joins.classify import ColumnKey, JoinedColumns, join_pairs
from repro.predicates.ast import Predicate
from repro.predicates.batch import ColumnarClassification
from repro.storage.table import Table

__all__ = ["JoinRefreshHeuristic", "execute_join_query"]


class JoinRefreshHeuristic:
    """Iterative greedy base-tuple refresh for join aggregation queries."""

    def __init__(
        self,
        tables: Sequence[Table],
        refresher: RefreshProvider | None,
        cost: CostFunc | None = None,
    ) -> None:
        self.tables = list(tables)
        self.refresher = refresher
        self.cost = cost if cost is not None else uniform_cost

    # ------------------------------------------------------------------
    def execute(
        self,
        aggregate: str,
        column: tuple[str, str] | None,
        max_width: float,
        predicate: Predicate | None = None,
    ) -> BoundedAnswer:
        """Run the iterative heuristic until the constraint is met."""
        steps = self.execute_steps(aggregate, column, max_width, predicate)
        return drive_steps(steps, self.refresher)

    def execute_steps(
        self,
        aggregate: str,
        column: tuple[str, str] | None,
        max_width: float,
        predicate: Predicate | None = None,
    ) -> ExecutionSteps:
        """The §7 heuristic as a resumable generator.

        Each greedy round is a one-tuple round of the executor's loop
        (:func:`~repro.core.executor.refresh_steps`): its selection is
        yielded as a :class:`~repro.core.executor.PlannedRefresh` against
        one base table — the per-table decomposition a cross-query
        scheduler needs to merge join demand with single-table plans.
        The driver applies each plan (possibly coalesced with other
        queries') and sends back the effective :class:`RefreshPlan`; the
        round then re-joins and re-classifies, so refreshes landed by
        concurrent queries are picked up before the next selection.  A
        base tuple is offered once; a round with it unreached is answered
        degraded.  Returns the :class:`BoundedAnswer` via
        ``StopIteration.value``.
        """
        spec = get_aggregate(aggregate)
        agg_column = column[1] if column is not None else None
        round_ = None

        def bound() -> Bound:
            nonlocal round_
            joined, maybe = join_pairs(self.tables, predicate)
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
            best = self._best_candidate(*round_, requested)
            if best is None:
                return None
            k, tid, cost = best
            plan = RefreshPlan(frozenset((tid,)), cost)
            return PlannedRefresh(self.tables[k], plan, max_width, aggregate)

        return (yield from refresh_steps(bound, max_width, pick=pick))

    # ------------------------------------------------------------------
    def _best_candidate(
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


def execute_join_query(
    tables: Sequence[Table],
    aggregate: str,
    column: tuple[str, str] | None,
    max_width: float,
    predicate: Predicate | None = None,
    refresher: RefreshProvider | None = None,
    cost: CostFunc | None = None,
) -> BoundedAnswer:
    """One-shot convenience wrapper around :class:`JoinRefreshHeuristic`."""
    heuristic = JoinRefreshHeuristic(
        tables,
        refresher if refresher is not None else NullRefreshProvider(),
        cost=cost,
    )
    return heuristic.execute(aggregate, column, max_width, predicate)
