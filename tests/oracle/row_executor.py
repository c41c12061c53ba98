"""The row-at-a-time executor ``repro.core.executor`` used to carry.

One :class:`Row` at a time: predicates over exact columns filter rows
two-valued (``evaluate_exact``), predicates over bounded columns go
through :func:`classify` exactly once and only the refreshed T? tuples
are re-examined afterwards, the Appendix D refinement clones rows, and
CHOOSE_REFRESH builds one ``KnapsackItem`` per row through the row
protocol (``tests/oracle/row_protocol.py``).  It speaks the same
``PlannedRefresh`` generator protocol as
:class:`~repro.core.executor.QueryExecutor` — it *is* one, with
``execute_steps`` swapped — so every driver (``execute``, a refresh hook,
a hand-rolled ``send`` loop) runs both.

Nothing in ``src/`` may import this module; the equivalence properties
compare the columnar pipeline against it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import (
    AbsolutePrecision,
    PrecisionConstraint,
    width_within,
)
from repro.core.executor import (
    ExecutionSteps,
    PlannedRefresh,
    QueryExecutor,
    finish_answer,
)
from repro.errors import UnknownColumnError
from repro.predicates.ast import Predicate, TruePredicate, columns_of
from repro.predicates.batch import classify_masks
from repro.storage.row import Row
from repro.storage.table import Table
from tests.oracle.row_eval import Trilean, evaluate_exact, evaluate_trilean
from tests.oracle.row_protocol import (
    Classification,
    CostFunc,
    classify,
    get_row_aggregate,
    get_row_choose_refresh,
    restrict_bound,
    uniform_cost,
)

__all__ = [
    "RowQueryExecutor",
    "classification_from_masks",
    "classify_columnar",
]


def classification_from_masks(rows: Sequence[Row], certain, possible) -> Classification:
    """Build a row-level :class:`Classification` from aligned masks.

    ``rows`` must be in the same (tuple-id) order the masks were computed
    in — i.e. ``Table.rows()``.
    """
    result = Classification()
    for row, is_certain, is_possible in zip(rows, certain, possible):
        if is_certain:
            result.plus.append(row)
        elif is_possible:
            result.maybe.append(row)
        else:
            result.minus.append(row)
    return result


def classify_columnar(table: Table, predicate: Predicate) -> Classification:
    """The columnar classifier's partition, as rows (to compare with
    :func:`classify`)."""
    certain, possible = classify_masks(table.columns, predicate)
    return classification_from_masks(table.rows(), certain, possible)


class RowQueryExecutor(QueryExecutor):
    """:class:`QueryExecutor` with the row-at-a-time ``execute_steps``."""

    def execute(
        self, table, aggregate, column, constraint, predicate=None,
        cost: CostFunc = uniform_cost,
    ) -> BoundedAnswer:
        """As inherited, but the default cost is a function of one row."""
        return super().execute(table, aggregate, column, constraint, predicate, cost)

    def execute_steps(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        constraint: PrecisionConstraint | float,
        predicate: Predicate | None = None,
        cost: CostFunc = uniform_cost,
    ) -> ExecutionSteps:
        if isinstance(constraint, (int, float)):
            constraint = AbsolutePrecision(float(constraint))
        predicate = predicate if predicate is not None else TruePredicate()
        touched = columns_of(predicate)
        for name in touched:
            table.schema.column(name)  # raises on unknown columns
        touches_bounded = any(
            table.schema[name].is_bounded
            and not all(row.is_exact(name) for row in table.rows())
            for name in touched
        )
        spec = get_row_aggregate(aggregate)
        if spec.needs_column and column is None:
            raise UnknownColumnError("<missing>", table.name)
        chooser = get_row_choose_refresh(
            spec.name, epsilon=self.epsilon, force_exact=self.force_exact
        )
        if touches_bounded:
            return (
                yield from self._execute_classified(
                    table, spec, chooser, column, constraint, predicate, cost
                )
            )
        return (
            yield from self._execute_unclassified(
                table, spec, chooser, column, constraint, predicate, cost
            )
        )

    # ------------------------------------------------------------------
    # §5 regime: no bounded-column predicate
    # ------------------------------------------------------------------
    def _execute_unclassified(
        self, table, spec, chooser, column, constraint, predicate, cost
    ) -> BoundedAnswer:
        if isinstance(predicate, TruePredicate):
            rows = table.rows()
        else:
            rows = [row for row in table.rows() if evaluate_exact(predicate, row)]
        initial = spec.bound_without_predicate(rows, column)

        max_width = constraint.resolve(initial)
        if width_within(initial.width, max_width):
            return BoundedAnswer(bound=initial, initial_bound=initial)

        plan = chooser.without_predicate(rows, column, max_width, cost)
        planned = PlannedRefresh(table, plan, max_width, spec.name)
        if spec.name == "SUM" and column is not None:
            widths = {row.tid: row.bound(column).width for row in rows}
            planned = _with_metadata(planned, initial, widths)
        plan = yield planned

        # Membership is fixed (the predicate saw only exact columns), so
        # the filtered row set remains valid; only the refreshed values
        # changed, and rows are records: read them again.
        rows = [table.row(row.tid) for row in rows]
        final = spec.bound_without_predicate(rows, column)
        return finish_answer(final, max_width, plan, initial)

    # ------------------------------------------------------------------
    # §6 regime: classify exactly once
    # ------------------------------------------------------------------
    def _execute_classified(
        self, table, spec, chooser, column, constraint, predicate, cost
    ) -> BoundedAnswer:
        classification = classify(table.rows(), predicate)
        refined = self._refined(classification, predicate, column)
        initial = spec.bound_with_classification(refined, column)

        max_width = constraint.resolve(initial)
        if width_within(initial.width, max_width):
            return BoundedAnswer(bound=initial, initial_bound=initial)

        plan = chooser.with_classification(refined, column, max_width, cost)
        planned = PlannedRefresh(table, plan, max_width, spec.name)
        if spec.name == "SUM" and column is not None:
            # §6.2 weights: refreshing a T+ tuple removes its full width;
            # refreshing a T? tuple removes its bound extended to zero (the
            # tuple may turn out to fail the predicate and contribute
            # nothing).
            widths = {row.tid: row.bound(column).width for row in refined.plus}
            widths.update(
                {
                    row.tid: row.bound(column).extend_to_zero().width
                    for row in refined.maybe
                }
            )
            planned = _with_metadata(planned, initial, widths)
        plan = yield planned

        updated = _reclassify_refreshed(table, classification, plan.tids, predicate)
        refined = self._refined(updated, predicate, column)
        final = spec.bound_with_classification(refined, column)
        return finish_answer(final, max_width, plan, initial)

    def _refined(
        self, classification: Classification, predicate: Predicate, column
    ) -> Classification:
        """Apply the Appendix D bound-shrinking refinement to T? tuples."""
        if not self.refine_bounds or column is None:
            return classification
        refined_maybe: list[Row] = []
        for row in classification.maybe:
            original = row.bound(column)
            shrunk = restrict_bound(original, predicate, column)
            if shrunk != original:
                refined_maybe.append(Row(row.tid, {**row.as_dict(), column: shrunk}))
            else:
                refined_maybe.append(row)
        return Classification(
            plus=classification.plus,
            maybe=refined_maybe,
            minus=classification.minus,
        )


class RowCandidates(NamedTuple):
    """What a scheduler reads of the served ``CandidateVectors``."""

    tids: np.ndarray
    widths: np.ndarray


def _with_metadata(
    planned: PlannedRefresh, initial: Bound, widths: dict[int, float]
) -> PlannedRefresh:
    # SUM's final width is the initial width minus the widths removed by
    # the refreshed tuples: the plan must remove this much.
    planned.candidates = RowCandidates(
        np.array(list(widths), dtype=np.int64), np.array(list(widths.values()))
    )
    planned.required_width = initial.width - planned.max_width
    return planned


def _reclassify_refreshed(
    table: Table,
    classification: Classification,
    refreshed: Iterable[int],
    predicate: Predicate,
) -> Classification:
    """Update a partition after the named tuples were refreshed.

    A refresh collapses bounds onto values inside them, so T+ and T−
    memberships survive; only refreshed T? tuples can become decided.
    Re-examining just those keeps :func:`classify` at one invocation per
    query.  Rows are records, so every member is read again from
    ``table``.
    """
    refreshed = set(refreshed)
    if not refreshed:
        return classification
    current = {row.tid: row for row in table.rows()}
    plus = [current.get(row.tid, row) for row in classification.plus]
    maybe: list[Row] = []
    minus = [current.get(row.tid, row) for row in classification.minus]
    for row in classification.maybe:
        row = current.get(row.tid, row)
        if row.tid not in refreshed:
            maybe.append(row)
            continue
        verdict = evaluate_trilean(predicate, row)
        if verdict is Trilean.TRUE:
            plus.append(row)
        elif verdict is Trilean.FALSE:
            minus.append(row)
        else:  # provider left a bound wide; stay sound, keep it in T?
            maybe.append(row)
    return Classification(plus=plus, maybe=maybe, minus=minus)
