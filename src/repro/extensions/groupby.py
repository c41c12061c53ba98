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
from repro.core.constraints import width_within
from repro.core.executor import (
    MAX_PLAN_ROUNDS,
    ExecutionSteps,
    NullRefreshProvider,
    PlannedRefresh,
    RefreshProvider,
    bounded_answer,
    drive_steps,
    finish_answer,
    table_positions,
)
from repro.core.refresh import get_choose_refresh
from repro.core.refresh.base import CostFunc, RefreshPlan, uniform_cost
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
    effective plan.  A group whose recheck misses R with every planned
    tuple reached plans again, as the executor does; one with tuples
    unreached is answered degraded.  Returns a :class:`GroupedAnswer` via
    ``StopIteration.value``.
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
    spec = get_aggregate(aggregate)
    chooser = get_choose_refresh(aggregate, epsilon=epsilon)

    split = _Split(table, group_by, predicate)
    # Key values come from one row per group, not from the float64
    # arrays: their Python types decide the repr order below and what
    # goes over the wire.
    tids = table.columns.sorted_tids()[split.first].tolist()
    keys = {
        tuple(table.row(tid)[name] for name in group_by): ident
        for tid, ident in zip(tids, split.code)
    }

    results: list[GroupResult] = []
    refreshed: set[int] = set()
    total_cost = 0.0
    for key in sorted(keys, key=repr):
        group = split.group(keys[key])
        if group is None:  # every tuple of it left while an earlier group waited
            continue
        size, share = group
        initial, _ = bounded_answer(table, spec, column, predicate, within=share)
        # The executor's loop, per group: plan, suspend, bound again, and
        # plan again while the recheck misses R with every tuple reached.
        bound, spent, rounds = initial, RefreshPlan.empty(), 0
        while not width_within(bound.width, max_width) and rounds < MAX_PLAN_ROUNDS:
            plan, _ = chooser.with_classification(
                table, share, column, max_width, cost, predicate=predicate
            )
            if rounds and not plan.tids:
                break
            effective = yield PlannedRefresh(
                table, plan, max_width, aggregate, replan=rounds > 0
            )
            rounds += 1
            spent = spent.then(plan if effective is None else effective)
            # Positions do not outlive a send: the refresh moved tuples
            # out of T?, and tuples can come and go while a plan is out.
            split = _Split(table, group_by, predicate)
            group = split.group(keys[key])
            if group is None:
                break
            size, share = group
            bound, _ = bounded_answer(table, spec, column, predicate, within=share)
            if spent.unreached:
                break
        refreshed.update(spent.tids)
        total_cost += spent.total_cost
        if group is not None:
            answer = finish_answer(bound, max_width, spent, initial, rounds)
            results.append(GroupResult(key, answer, size))

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


class _Split:
    """The table's one ``(T+, T?)`` pair, regrouped by group.

    The table is classified once and dense group codes from the exact key
    columns' arrays sort its two position arrays by group; a group's share
    is then two slices.  Everything here is positions, good for the store
    as it stands and no longer — built per use, never kept across a send.
    """

    def __init__(self, table: Table, group_by: Sequence[str], predicate: Predicate):
        idents, self.first, codes = _group_index(table.columns, group_by)
        #: Group code by the group's key as the arrays hold it.
        self.code = dict(zip(idents, range(len(idents))))
        self._sizes = np.bincount(codes, minlength=len(idents)).tolist()
        self._parts = [
            _by_group(at, codes, len(idents))
            for at in table_positions(table, predicate)
        ]

    def group(self, ident):
        """``(size, (T+, T?))`` of one group; ``None`` once it is empty."""
        g = self.code.get(ident)
        if g is None:
            return None
        return self._sizes[g], tuple(
            at[cuts[g] : cuts[g + 1]] for at, cuts in self._parts
        )


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
        store.text_values(name) if store.is_text(name) else store.endpoints(name)[0]
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
