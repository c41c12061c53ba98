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
generator protocol with one yielded plan per round, not per group: every
group's refresh loop runs in lock step
(:func:`repro.core.executor.lockstep_steps`), and a round asks for the
union of the plans of the groups still too wide — one source request
where there were as many as groups.  Grouped statements suspend into the
concurrent service's refresh scheduler like any single-table query, and
:func:`~repro.core.executor.drive_steps` drives them serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import PrecisionConstraint
from repro.core.executor import (
    ExecutionSteps,
    PlannedRefresh,
    bounded_answer,
    lockstep_steps,
    refresh_steps,
    table_positions,
)
from repro.core.refresh import get_choose_refresh
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import TrappError
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.table import Table

__all__ = ["GroupResult", "GroupedAnswer", "grouped_query_steps"]


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
    unchanged to grouped statements.  ``refreshed`` and ``refresh_cost``
    are what the driver reported for the statement's rounds; ``degraded``
    and ``unreachable_sources`` aggregate over all groups; the per-group
    breakdown lives in ``groups``.
    """

    groups: tuple[GroupResult, ...] = ()


def grouped_query_steps(
    table: Table,
    group_by: Sequence[str],
    aggregate: str,
    column: str | None,
    constraint: PrecisionConstraint | float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """``SELECT key, AGG(column) WITHIN R ... GROUP BY key`` as a generator.

    Grouping columns must be exact (grouping on bounded values is the
    open problem the paper defers); ``constraint`` holds for every group.

    Every group runs the executor's loop
    (:func:`~repro.core.executor.refresh_steps`) over its share, and the
    loops run in lock step: each round, the groups whose bound is too
    wide plan in key order and their plans go out as one
    :class:`~repro.core.executor.PlannedRefresh` (groups partition the
    table, so no tuple is planned twice).  The driver sends back the
    effective plan; its tuples go to the groups that own them and its
    cost in proportion to each group's planned cost.  A recheck that
    misses R with every planned tuple reached plans again; a group with
    tuples unreached is answered degraded, alone.  Returns a
    :class:`GroupedAnswer` via ``StopIteration.value``.
    """
    if not group_by:
        raise TrappError("GROUP BY requires at least one grouping column")
    for name in group_by:
        if table.schema.column(name).is_bounded:
            raise TrappError(
                f"cannot group on bounded column {name!r}; grouping keys "
                "must be exact (paper §8.1 leaves bounded grouping open)"
            )

    predicate = predicate if predicate is not None else TruePredicate()
    groups = _Groups(table, group_by, aggregate, column, predicate, cost)
    # Key values come from the object arrays, not from the float64 ones:
    # their Python types decide the repr order below and what goes over
    # the wire.
    store = table.columns
    values = [store.objects(name)[groups.first].tolist() for name in group_by]
    keys = dict(zip(zip(*values), groups.idents))
    order = sorted(keys, key=repr)
    members = [_Group(groups, keys[key]) for key in order]
    loop_of = {keys[key]: i for i, key in enumerate(order)}
    answers, spent = yield from lockstep_steps(
        [refresh_steps(m.bound, constraint, m.plan) for m in members],
        lambda tids: groups.owners(tids, loop_of),
    )
    results = [
        GroupResult(key, answer, member.size)
        for key, member, answer in zip(order, members, answers)
        if answer is not None  # None: every tuple of it left meanwhile
    ]

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
        refreshed=spent.tids,
        refresh_cost=spent.total_cost,
        initial_bound=widest_initial,
        degraded=any(r.answer.degraded for r in results),
        unreachable_sources=tuple(
            sorted(set().union(*(r.answer.unreachable_sources for r in results)))
        ),
        groups=tuple(results),
    )


class _Groups:
    """The statement, and the table split by group, shared by every
    group's loop.

    The table is classified and dense group codes from the exact key
    columns' arrays sort its ``(T+, T?)`` pair by group; a group's share
    is then two slices.  Positions do not outlive a change to the store —
    a refresh moves tuples out of T?, and tuples can come and go while a
    plan is out — so the first share taken after the store moved splits
    the table again, and the rest of that round reuse the split: once per
    round, not once per group.
    """

    def __init__(self, table, group_by, aggregate, column, predicate, cost) -> None:
        self.table, self.group_by, self.predicate = table, group_by, predicate
        self.aggregate, self.column, self.cost = aggregate, column, cost
        self.spec = get_aggregate(aggregate)
        self.chooser = get_choose_refresh(aggregate)
        self.version = None
        self.split()

    def split(self) -> None:
        store = self.table.columns
        if self.version == store.version:
            return
        self.version = store.version
        self.idents, self.first, self.codes = _group_index(store, self.group_by)
        #: Group code by the group's key as the arrays hold it.
        self.code = dict(zip(self.idents, range(len(self.idents))))
        self.tids = store.sorted_tids()
        self.sizes = np.bincount(self.codes, minlength=len(self.idents)).tolist()
        self.parts = [
            _by_group(at, self.codes, len(self.idents))
            for at in table_positions(self.table, self.predicate)
        ]

    def share(self, ident):
        """``(size, (T+, T?) share)`` of a group, ``None`` once every
        tuple of it left."""
        self.split()
        g = self.code.get(ident)
        if g is None:
            return None
        return self.sizes[g], tuple(at[cuts[g] : cuts[g + 1]] for at, cuts in self.parts)

    def owners(self, tids: Iterable[int], loop_of: dict) -> list[int | None]:
        """The loop owning each tuple id, by the split the round planned
        on: ``loop_of[ident]`` of its group, ``None`` for a tuple that
        split did not hold."""
        tids = np.asarray(list(tids), dtype=np.int64)
        if not len(self.tids):
            return [None] * len(tids)
        at = np.minimum(np.searchsorted(self.tids, tids), len(self.tids) - 1)
        held = (self.tids[at] == tids).tolist()
        return [
            loop_of.get(self.idents[code]) if found else None
            for code, found in zip(self.codes[at].tolist(), held)
        ]


class _Group:
    """One group for :func:`refresh_steps`: its bound and its batch plan
    read only its share of the last split."""

    def __init__(self, groups: _Groups, ident) -> None:
        self.groups, self.ident = groups, ident
        self.size = self.share = None

    def bound(self) -> Bound | None:
        found = self.groups.share(self.ident)
        if found is None:
            return None
        self.size, self.share = found
        g = self.groups
        bound, _ = bounded_answer(
            g.table, g.spec, g.column, g.predicate, within=self.share
        )
        return bound

    def plan(self, bound: Bound, max_width: float) -> PlannedRefresh:
        g = self.groups
        plan, _ = g.chooser.with_classification(
            g.table, self.share, g.column, max_width, g.cost, predicate=g.predicate
        )
        return PlannedRefresh(g.table, plan, max_width, g.aggregate)


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
