"""GROUP BY over exact grouping keys (paper §8.1 extension).

Full grouping on *bounded* values (uncertain group membership) is listed
as open future work; the tractable and immediately useful case — grouping
on exact columns (link endpoints, tickers, source ids) while aggregating a
bounded column — is implemented here.  Each group independently runs the
single-table machinery, and the per-group precision constraint is enforced
with the standard CHOOSE_REFRESH algorithms, so every group's answer
carries the same guarantee as a standalone query.

"The single-table machinery" is literal: the table is classified once
into its ``(T+, T?)`` position pair, dense group codes computed from the
key columns' arrays split that pair by group, and each group's share goes
through :func:`repro.core.executor.bounded_answer` and the aggregate's
``with_classification`` chooser — what every other statement class calls,
Appendix D refinement included.

:func:`grouped_query_steps` speaks the executor's ``PlannedRefresh``
generator protocol — one yielded plan per group that needs a refresh —
so grouped statements suspend into the concurrent service's refresh
scheduler like any single-table query; :func:`grouped_query` is the
serial driver around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.executor import (
    ExecutionSteps,
    NullRefreshProvider,
    PlannedRefresh,
    RefreshProvider,
    bounded_answer,
    drive_steps,
    refresh_steps,
    table_positions,
)
from repro.core.refresh import get_choose_refresh
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import TrappError
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.table import Table

__all__ = ["GroupResult", "GroupedAnswer", "grouped_query", "grouped_query_steps"]


@dataclass(frozen=True, slots=True)
class GroupResult:
    """One group's key and bounded answer."""

    key: tuple[Hashable, ...]
    answer: BoundedAnswer
    size: int


@dataclass(frozen=True, slots=True)
class GroupedAnswer(BoundedAnswer):
    """All groups' answers behind one headline :class:`BoundedAnswer`.

    ``bound`` is the *widest* group's bound (exact zero when the table is
    empty), so ``meets(R)`` holds iff every group meets the per-group
    constraint — the service's result-cache width checks then apply
    unchanged to grouped statements.  ``refreshed``, ``refresh_cost``,
    ``degraded`` and ``unreachable_sources`` aggregate over all groups;
    the per-group breakdown lives in ``groups``.
    """

    groups: tuple[GroupResult, ...] = ()


def grouped_query_steps(
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
    effective plan.  Each group runs the executor's loop
    (:func:`~repro.core.executor.refresh_steps`) over its share: a
    recheck that misses R with every planned tuple reached plans again,
    one with tuples unreached is answered degraded.  Returns a
    :class:`GroupedAnswer` via ``StopIteration.value``.
    """
    if not group_by:
        raise TrappError("grouped_query requires at least one grouping column")
    for name in group_by:
        if table.schema.column(name).is_bounded:
            raise TrappError(
                f"cannot group on bounded column {name!r}; grouping keys "
                "must be exact (paper §8.1 leaves bounded grouping open)"
            )

    predicate = predicate if predicate is not None else TruePredicate()
    groups = _Groups(table, group_by, aggregate, column, predicate, cost, epsilon)
    # Key values come from the object arrays, not from the float64 ones:
    # their Python types decide the repr order below and what goes over
    # the wire.
    store = table.columns
    values = [store.objects(name)[groups.first].tolist() for name in group_by]
    keys = dict(zip(zip(*values), groups.code))

    results: list[GroupResult] = []
    for key in sorted(keys, key=repr):
        answer = yield from groups.steps(keys[key], max_width)
        if answer is not None:  # None: every tuple of it left meanwhile
            results.append(GroupResult(key, answer, groups.size))

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
        refreshed=frozenset().union(*(r.answer.refreshed for r in results)),
        refresh_cost=sum((r.answer.refresh_cost for r in results), 0.0),
        initial_bound=widest_initial,
        degraded=any(r.answer.degraded for r in results),
        unreachable_sources=tuple(
            sorted(set().union(*(r.answer.unreachable_sources for r in results)))
        ),
        groups=tuple(results),
    )


def grouped_query(
    table: Table,
    group_by: Sequence[str],
    aggregate: str,
    column: str | None,
    max_width: float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
    refresher: RefreshProvider | None = None,
    epsilon: float | None = None,
) -> list[GroupResult]:
    """Run ``SELECT key, AGG(column) WITHIN R ... GROUP BY key``.

    Grouping columns must be exact (grouping on bounded values is the open
    problem the paper defers).  Returns one :class:`GroupResult` per group,
    ordered by key.
    """
    refresher = refresher if refresher is not None else NullRefreshProvider()
    steps = grouped_query_steps(
        table, group_by, aggregate, column, max_width, predicate, cost, epsilon
    )
    answer = drive_steps(steps, refresher)
    return list(answer.groups)


class _Groups:
    """The statement's groups, one :func:`refresh_steps` loop each.

    The table is classified once and dense group codes from the exact key
    columns' arrays sort its ``(T+, T?)`` pair by group; a group's share
    is then two slices, and its bound and plan read nothing else.
    Positions do not outlive a send — the refresh moved tuples out of T?,
    and tuples can come and go while a plan is out — so every bound after
    a send splits the table again; a group's first bound reuses the last
    split.
    """

    def __init__(
        self, table, group_by, aggregate, column, predicate, cost, epsilon
    ) -> None:
        self.table, self.group_by, self.predicate = table, group_by, predicate
        self.aggregate, self.column, self.cost = aggregate, column, cost
        self.spec = get_aggregate(aggregate)
        self.chooser = get_choose_refresh(aggregate, epsilon=epsilon)
        self.split()
        self.size = self.share = self.ident = self.fresh = None

    def split(self) -> None:
        idents, self.first, codes = _group_index(self.table.columns, self.group_by)
        #: Group code by the group's key as the arrays hold it.
        self.code = dict(zip(idents, range(len(idents))))
        self.sizes = np.bincount(codes, minlength=len(idents)).tolist()
        self.parts = [
            _by_group(at, codes, len(idents))
            for at in table_positions(self.table, self.predicate)
        ]

    def steps(self, ident, max_width: float) -> ExecutionSteps:
        self.ident, self.fresh = ident, True
        return refresh_steps(self.bound, max_width, self.plan)

    def bound(self) -> Bound | None:
        if not self.fresh:
            self.split()
        self.fresh = False
        g = self.code.get(self.ident)
        if g is None:  # every tuple of the group left
            return None
        self.size = self.sizes[g]
        self.share = tuple(at[cuts[g] : cuts[g + 1]] for at, cuts in self.parts)
        bound, _ = bounded_answer(
            self.table, self.spec, self.column, self.predicate, within=self.share
        )
        return bound

    def plan(self, bound: Bound, max_width: float) -> PlannedRefresh:
        plan, _ = self.chooser.with_classification(
            self.table, self.share, self.column, max_width, self.cost,
            predicate=self.predicate,
        )
        return PlannedRefresh(self.table, plan, max_width, self.aggregate)


def _group_index(store, group_by: Sequence[str]):
    """Dense group codes from the exact key columns' arrays.

    Returns ``(idents, first, codes)``: ``codes[i]`` is the group of the
    tuple at tuple-order position ``i``, ``first[g]`` the position of
    group ``g``'s lowest tuple id, and ``idents[g]`` its key as the arrays
    hold it (one ``float`` or ``str`` per column; equal to the row's own
    key values, so an ``int`` and a ``float`` that compare equal share a
    group as they share a ``dict`` slot).
    """
    columns = [
        store.objects(name) if store.is_text(name) else store.endpoints(name)[0]
        for name in group_by
    ]
    first = codes = None
    for values in columns:
        _, index, inverse = np.unique(values, return_index=True, return_inverse=True)
        if codes is None:
            first, codes = index, inverse
        else:
            # Made dense again per column, so the product stays below n².
            _, first, codes = np.unique(
                codes * len(index) + inverse, return_index=True, return_inverse=True
            )
    idents = list(zip(*(values[first].tolist() for values in columns)))
    return idents, first, codes


def _by_group(at: np.ndarray, codes: np.ndarray, count: int):
    """Sorted positions ``at`` regrouped by group code: ``(regrouped,
    cuts)`` with group ``g``'s positions, still sorted, at
    ``regrouped[cuts[g]:cuts[g + 1]]``."""
    if not len(at):
        return at, [0] * (count + 1)
    group = codes[at]
    order = np.argsort(group, kind="stable")
    cuts = np.searchsorted(group[order], np.arange(count + 1))
    return at[order], cuts.tolist()
