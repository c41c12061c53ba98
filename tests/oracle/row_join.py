"""The row-at-a-time §7 join ``repro.joins`` used to be.

:func:`join_rows` materializes one merged ``Row`` per candidate joined
tuple (every column under ``table.column`` plus an unqualified alias)
and classifies it with ``evaluate_trilean``;
:class:`RowJoinRefreshHeuristic` re-joins on every greedy round and
scores base tuples in a dict loop.  The array kernels in
``repro.joins.classify`` / ``repro.joins.refresh`` must reproduce the
surviving pairs, their verdicts and order, and every round's chosen
base tuple.

An unqualified column name carried by several tables resolves to the
*last* of them here (the alias loop overwrites); the array view keeps
that rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.executor import (
    ExecutionSteps,
    PlannedRefresh,
    RefreshProvider,
    drive_steps,
)
from repro.core.refresh.base import RefreshPlan
from repro.errors import ConstraintUnsatisfiableError
from repro.joins.classify import _equality_key_columns
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.row import Row
from repro.storage.table import Table
from tests.oracle.row_eval import Trilean, evaluate_trilean
from tests.oracle.row_protocol import Classification, get_row_aggregate

CostFunc = Callable[[Row], float]


@dataclass(frozen=True, slots=True)
class JoinedTuple:
    """One candidate joined tuple plus its provenance.

    ``row`` is the merged virtual row; ``base`` maps each table name to the
    contributing base tuple id (needed by the refresh heuristic, which must
    refresh *base* tuples, not joined ones).
    """

    row: Row
    base: dict[str, int]
    verdict: Trilean


def _merge_rows(tables: Sequence[Table], rows: Sequence[Row], joined_tid: int) -> Row:
    values: dict[str, object] = {}
    collisions: set[str] = set()
    for table, row in zip(tables, rows):
        for column in table.schema.column_names:
            values[f"{table.name}.{column}"] = row[column]
            if column in values and column not in collisions:
                # Second unqualified sighting: drop the alias.
                if any(
                    column in t.schema.column_names
                    for t in tables
                    if t.name != table.name
                ):
                    collisions.add(column)
    for table, row in zip(tables, rows):
        for column in table.schema.column_names:
            if column not in collisions:
                values[column] = row[column]
    return Row(joined_tid, values)


def join_rows(
    tables: Sequence[Table], predicate: Predicate | None = None
) -> list[JoinedTuple]:
    """Materialize candidate joined tuples with their classification.

    Uses a hash join when an exact-column equality is available (the common
    foreign-key case), else the general nested loop.  Tuples whose verdict
    is FALSE (certainly not joined) are dropped.
    """
    predicate = predicate if predicate is not None else TruePredicate()
    out: list[JoinedTuple] = []
    joined_tid = 1

    key_pair = _equality_key_columns(predicate, tables)
    if key_pair is not None:
        left_col, right_col = key_pair
        t1, t2 = tables
        buckets: dict[object, list[Row]] = {}
        for row in t2.rows():
            buckets.setdefault(row[right_col], []).append(row)
        combos = (
            (r1, r2)
            for r1 in t1.rows()
            for r2 in buckets.get(r1[left_col], ())
        )
    else:
        combos = itertools.product(*(t.rows() for t in tables))

    for rows in combos:
        rows = tuple(rows)
        merged = _merge_rows(tables, rows, joined_tid)
        verdict = evaluate_trilean(predicate, merged)
        if verdict is Trilean.FALSE:
            continue
        out.append(
            JoinedTuple(
                row=merged,
                base={t.name: r.tid for t, r in zip(tables, rows)},
                verdict=verdict,
            )
        )
        joined_tid += 1
    return out


def classify_joined(joined: Sequence[JoinedTuple]) -> Classification:
    """Convert joined tuples' verdicts into a standard Classification."""
    result = Classification()
    for jt in joined:
        if jt.verdict is Trilean.TRUE:
            result.plus.append(jt.row)
        elif jt.verdict is Trilean.MAYBE:
            result.maybe.append(jt.row)
        else:
            result.minus.append(jt.row)
    return result


@dataclass(frozen=True, slots=True)
class _BaseTupleKey:
    table: str
    tid: int


class RowJoinRefreshHeuristic:
    """The §7 greedy heuristic over :func:`join_rows`, one ``Row`` per joined tuple."""

    def __init__(
        self,
        tables: Sequence[Table],
        refresher: RefreshProvider,
        cost: CostFunc | None = None,
        max_iterations: int = 10_000,
    ) -> None:
        self.tables = list(tables)
        self.by_name = {t.name: t for t in self.tables}
        self.refresher = refresher
        self.cost = cost if cost is not None else (lambda row: 1.0)
        self.max_iterations = max_iterations

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

        Each greedy round yields its selection as a
        :class:`~repro.core.executor.PlannedRefresh` against one base
        table — the per-table decomposition a cross-query scheduler
        needs to merge join demand with single-table plans.  The driver
        applies each plan (possibly coalesced with other queries') and
        sends back the effective :class:`RefreshPlan`; the round then
        re-joins and re-classifies, so refreshes landed by concurrent
        queries are picked up before the next selection.  Returns the
        :class:`BoundedAnswer` via ``StopIteration.value``.
        """
        spec = get_row_aggregate(aggregate)
        agg_key = self._aggregation_key(column)

        refreshed: set[_BaseTupleKey] = set()
        total_cost = 0.0
        initial: Bound | None = None

        for _ in range(self.max_iterations):
            joined = join_rows(self.tables, predicate)
            classification = classify_joined(joined)
            bound = spec.bound_with_classification(classification, agg_key)
            if initial is None:
                initial = bound
            if width_within(bound.width, max_width):
                return BoundedAnswer(
                    bound=bound,
                    refreshed=frozenset(k.tid for k in refreshed),
                    refresh_cost=total_cost,
                    initial_bound=initial,
                )
            best = self._best_candidate(joined, agg_key, refreshed)
            if best is None:
                # Nothing left to refresh yet constraint unmet: the answer
                # is inherently this wide (e.g. R = 0 over an empty join).
                raise ConstraintUnsatisfiableError(
                    f"join answer {bound} cannot be narrowed below "
                    f"{bound.width:g} (requested {max_width:g})"
                )
            table = self.by_name[best.table]
            plan = RefreshPlan(frozenset((best.tid,)), self._cost_of(best))
            effective = yield PlannedRefresh(table, plan, max_width, aggregate)
            if effective is None:
                effective = plan
            total_cost += effective.total_cost
            refreshed.add(best)
            refreshed.update(
                _BaseTupleKey(best.table, tid) for tid in effective.tids
            )
        raise ConstraintUnsatisfiableError(
            f"join refresh heuristic exceeded {self.max_iterations} iterations"
        )

    # ------------------------------------------------------------------
    def _aggregation_key(self, column: tuple[str, str] | None) -> str | None:
        if column is None:
            return None
        table_name, col = column
        # Joined rows always carry the qualified key.
        return f"{table_name}.{col}"

    def _best_candidate(
        self,
        joined: Sequence[JoinedTuple],
        agg_key: str | None,
        refreshed: set[_BaseTupleKey],
    ) -> _BaseTupleKey | None:
        """Highest benefit/cost base tuple not yet refreshed.

        One candidate per round keeps the refresh sequence identical to
        the pre-generator heuristic (benefit estimates overcount
        interacting widths, so bulk selection overshoots); the per-table
        decomposition happens at the yield, not in the selection.
        """
        benefit: dict[_BaseTupleKey, float] = {}
        for jt in joined:
            uncertainty = 1.0 if jt.verdict is Trilean.MAYBE else 0.0
            if agg_key is not None:
                bound = jt.row.bound(agg_key)
                width = (
                    bound.extend_to_zero().width
                    if jt.verdict is Trilean.MAYBE
                    else bound.width
                )
            else:
                width = 0.0
            score = width + uncertainty
            if score <= 0:
                continue
            for table_name, tid in jt.base.items():
                key = _BaseTupleKey(table_name, tid)
                if key in refreshed:
                    continue
                if self._is_fully_exact(key):
                    continue
                benefit[key] = benefit.get(key, 0.0) + score
        if not benefit:
            return None
        return max(
            benefit,
            key=lambda k: (
                benefit[k] / max(self._cost_of(k), 1e-12),
                -k.tid,
            ),
        )

    def _is_fully_exact(self, key: _BaseTupleKey) -> bool:
        table = self.by_name[key.table]
        row = table.row(key.tid)
        return all(
            row.is_exact(column.name) for column in table.schema.bounded_columns
        )

    def _cost_of(self, key: _BaseTupleKey) -> float:
        return self.cost(self.by_name[key.table].row(key.tid))
