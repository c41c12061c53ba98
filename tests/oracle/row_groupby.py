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
sizes, merged plans and bounds; ``tests/property/test_groupby_columnar.py``
drives the two in lock step.  The round structure is the array
version's: every group is bounded in key order and the ones too wide
plan, then their plans go out as one send.  The effective plan comes
back split by group membership — tuple ids and unreached ones to the
group that owns them, the cost in proportion to each group's planned
cost — and the statement's ``refreshed`` / ``refresh_cost`` are what the
driver reported.  Each group plans once: in lock step nothing widens a
bound between a yield and its ``send``, so the array version never plans
again there, and a group with tuples unreached ends both in the same
verdict (``repro.core.executor.finish_answer``).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.executor import ExecutionSteps, PlannedRefresh, finish_answer
from repro.core.refresh.base import RefreshPlan
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
) -> ExecutionSteps:
    """``SELECT key, AGG(column) WITHIN R ... GROUP BY key`` as a generator.

    Groups are planned in deterministic key order; the plans of every
    group whose cached bound is too wide are yielded together as one
    :class:`~repro.core.executor.PlannedRefresh` (groups partition the
    table, so plans never interact) and the driver sends back the
    effective plan.  Returns a :class:`GroupedAnswer` via
    ``StopIteration.value``.
    """
    if not group_by:
        raise TrappError("GROUP BY requires at least one grouping column")
    for name in group_by:
        spec = table.schema.column(name)
        if spec.is_bounded:
            raise TrappError(
                f"cannot group on bounded column {name!r}; grouping keys "
                "must be exact (paper §8.1 leaves bounded grouping open)"
            )

    predicate = predicate if predicate is not None else TruePredicate()
    agg = get_row_aggregate(aggregate)
    chooser = get_row_choose_refresh(aggregate)
    bounded_pred = _touches_bounded(table, predicate)

    groups: dict[tuple[Hashable, ...], list[Row]] = {}
    for row in table.rows():
        key = tuple(row[name] for name in group_by)
        groups.setdefault(key, []).append(row)
    order = sorted(groups, key=repr)
    owner = {row.tid: key for key in order for row in groups[key]}

    answers: dict[tuple[Hashable, ...], GroupResult] = {}
    planned: dict[tuple[Hashable, ...], tuple[Bound, RefreshPlan]] = {}
    for key in order:
        rows = _reread(table, groups[key])
        initial = _bound(agg, rows, column, predicate, bounded_pred)
        if width_within(initial.width, max_width):
            answer = BoundedAnswer(bound=initial, initial_bound=initial)
            answers[key] = GroupResult(key, answer, len(rows))
            continue
        if bounded_pred:
            classification = classify(rows, predicate)
            plan = chooser.with_classification(classification, column, max_width, cost)
        else:
            filtered = _exact_filter(rows, predicate)
            plan = chooser.without_predicate(filtered, column, max_width, cost)
        planned[key] = initial, plan

    refreshed: frozenset[int] = frozenset()
    total_cost = 0.0
    if planned:
        plans = [plan for _, plan in planned.values()]
        merged = RefreshPlan(
            frozenset().union(*(plan.tids for plan in plans)),
            sum(plan.total_cost for plan in plans),
        )
        effective = yield PlannedRefresh(table, merged, max_width, aggregate)
        if effective is None:
            effective = merged
        refreshed, total_cost = effective.tids, effective.total_cost
        planned_cost = sum(plan.total_cost for plan in plans)
        for key, (initial, plan) in planned.items():
            mine = frozenset(t for t in effective.tids if owner.get(t) == key)
            lost = frozenset(t for t in effective.unreached if owner.get(t) == key)
            share = (
                plan.total_cost * (effective.total_cost / planned_cost)
                if planned_cost
                else effective.total_cost / len(plans)
            )
            part = RefreshPlan(
                mine, share, lost, effective.failed_sources if lost else ()
            )
            rows = _reread(table, groups[key])
            final = _bound(agg, rows, column, predicate, bounded_pred)
            answers[key] = GroupResult(
                key, finish_answer(final, max_width, part, initial), len(rows)
            )
    results = [answers[key] for key in order]

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
        refreshed=refreshed,
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
