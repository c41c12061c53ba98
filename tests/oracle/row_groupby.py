"""The row-at-a-time GROUP BY ``repro.extensions.groupby`` used to be.

One ``dict`` lookup per row builds the groups as :class:`Row` lists; each
group then runs the row protocol (``tests/oracle/row_protocol.py``):
exact-column predicates filter its rows two-valued, bounded-column
predicates classify them — without the Appendix D refinement, which the
row GROUP BY never applied — and the row choosers plan over the lists.
The row lists are built once and kept, so a tuple inserted mid-query is
not seen and a deleted one still is; rows are records, so a group's
members are read again before its bound is taken.  The array version
(``repro.extensions.groupby``) must reproduce key order, key types,
sizes, per-group plans and bounds; ``tests/property/test_groupby_columnar.py``
drives the two in lock step.  Each group plans once: in lock step nothing
widens a bound between a yield and its ``send``, so the array version
never plans again there, and a round with tuples unreached ends both in
the same verdict (``repro.core.executor.finish_answer``).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.executor import ExecutionSteps, PlannedRefresh, finish_answer
from repro.errors import TrappError
from repro.extensions.groupby import GroupedAnswer, GroupResult
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.row import Row
from repro.storage.table import Table
from tests.oracle.row_protocol import (
    CostFunc,
    uniform_cost,
    classify,
    get_row_aggregate,
    get_row_choose_refresh,
)

__all__ = ["row_grouped_query_steps"]


def row_grouped_query_steps(
    table: Table,
    group_by: Sequence[str],
    aggregate: str,
    column: str | None,
    max_width: float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
    epsilon: float | None = None,
) -> ExecutionSteps:
    """``SELECT key, AGG(column) WITHIN R ... GROUP BY key`` as a generator.

    Groups are planned in deterministic key order; whenever a group's
    cached bound is too wide the chosen refresh plan is yielded as a
    :class:`~repro.core.executor.PlannedRefresh` (groups partition the
    table, so plans never interact) and the driver sends back the
    effective plan.  Returns a :class:`GroupedAnswer` via
    ``StopIteration.value``.
    """
    if not group_by:
        raise TrappError("grouped_query requires at least one grouping column")
    for name in group_by:
        spec = table.schema.column(name)
        if spec.is_bounded:
            raise TrappError(
                f"cannot group on bounded column {name!r}; grouping keys "
                "must be exact (paper §8.1 leaves bounded grouping open)"
            )

    predicate = predicate if predicate is not None else TruePredicate()
    agg = get_row_aggregate(aggregate)
    chooser = get_row_choose_refresh(aggregate, epsilon=epsilon)
    bounded_pred = _touches_bounded(table, predicate)

    groups: dict[tuple[Hashable, ...], list[Row]] = {}
    for row in table.rows():
        key = tuple(row[name] for name in group_by)
        groups.setdefault(key, []).append(row)

    results: list[GroupResult] = []
    refreshed: set[int] = set()
    total_cost = 0.0
    for key in sorted(groups, key=repr):
        rows = _reread(table, groups[key])
        initial = _bound(agg, rows, column, predicate, bounded_pred)
        if width_within(initial.width, max_width):
            results.append(
                GroupResult(key, BoundedAnswer(bound=initial, initial_bound=initial), len(rows))
            )
            continue
        if bounded_pred:
            classification = classify(rows, predicate)
            plan = chooser.with_classification(classification, column, max_width, cost)
        else:
            filtered = _exact_filter(rows, predicate)
            plan = chooser.without_predicate(filtered, column, max_width, cost)
        effective = yield PlannedRefresh(table, plan, max_width, aggregate)
        if effective is None:
            effective = plan
        rows = _reread(table, rows)
        final = _bound(agg, rows, column, predicate, bounded_pred)
        answer = finish_answer(final, max_width, effective, initial)
        refreshed.update(effective.tids)
        total_cost += effective.total_cost
        results.append(GroupResult(key, answer, len(rows)))

    widest = max(
        (r.answer.bound for r in results), key=lambda b: b.width, default=Bound(0.0, 0.0)
    )
    widest_initial = max(
        (
            r.answer.initial_bound
            for r in results
            if r.answer.initial_bound is not None
        ),
        key=lambda b: b.width,
        default=None,
    )
    return GroupedAnswer(
        bound=widest,
        refreshed=frozenset(refreshed),
        refresh_cost=total_cost,
        initial_bound=widest_initial,
        degraded=any(r.answer.degraded for r in results),
        unreachable_sources=tuple(
            sorted(set().union(*(r.answer.unreachable_sources for r in results)))
        ),
        groups=tuple(results),
    )


def _reread(table: Table, rows: list[Row]) -> list[Row]:
    """The members as the table holds them now; a deleted one as last read."""
    return [table.row(row.tid) if row.tid in table else row for row in rows]


def _touches_bounded(table: Table, predicate: Predicate) -> bool:
    from repro.predicates.ast import columns_of

    return any(
        name in table.schema and table.schema[name].is_bounded
        for name in columns_of(predicate)
    )


def _exact_filter(rows: list[Row], predicate: Predicate) -> list[Row]:
    from tests.oracle.row_eval import evaluate_exact

    if isinstance(predicate, TruePredicate):
        return rows
    return [row for row in rows if evaluate_exact(predicate, row)]


def _bound(agg, rows: list[Row], column: str | None, predicate: Predicate, bounded_pred: bool):
    if bounded_pred:
        return agg.bound_with_classification(classify(rows, predicate), column)
    return agg.bound_without_predicate(_exact_filter(rows, predicate), column)
