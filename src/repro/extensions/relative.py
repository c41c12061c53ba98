"""Relative precision constraints (paper §8.1 extension).

A relative constraint ``P`` demands final width ``≤ 2 · |A| · P`` where
``A`` is the (unknown) precise answer.  The paper's suggested reduction:
compute a first-pass bounded answer from cached data alone, derive from it
a *conservative* absolute constraint ``R ≤ 2 · |A| · P`` valid for every
``A`` in the first-pass interval, then run the ordinary machinery.

:func:`execute_relative_query` implements that two-pass strategy, plus an
iterative tightening loop for the case where the first pass straddles zero
(no useful conservative ``R`` exists until some refreshes shrink the
interval away from zero).
"""

from __future__ import annotations

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.core.executor import QueryExecutor, RefreshProvider, bounded_answer
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import ConstraintUnsatisfiableError
from repro.extensions.iterative import IterativeRefreshExecutor
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.table import Table

__all__ = ["execute_relative_query"]


def execute_relative_query(
    table: Table,
    aggregate: str,
    column: str | None,
    fraction: float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
    refresher: RefreshProvider | None = None,
    epsilon: float | None = None,
) -> BoundedAnswer:
    """Answer a query under the relative constraint ``width ≤ 2·|A|·P``.

    When the cached-only answer interval excludes zero, the conservative
    absolute budget ``2 · min|endpoint| · P`` is used directly (one batch
    round).  When it straddles zero, the iterative executor refreshes
    benefit-ordered tuples until the interval clears zero, after which the
    batch strategy finishes the job.
    """
    constraint = RelativePrecision(fraction)
    executor = QueryExecutor(refresher=refresher, epsilon=epsilon)

    # First pass over cached data only (the executor's step 1): the width
    # budget comes from it.
    first_pass, _ = bounded_answer(
        table,
        get_aggregate(aggregate),
        column,
        predicate if predicate is not None else TruePredicate(),
    )

    if not first_pass.contains(0.0):
        budget = constraint.resolve(first_pass)
        return executor.execute(table, aggregate, column, budget, predicate, cost)

    # Interval straddles zero: iteratively refresh until it clears zero or
    # collapses, then finish with the conservative budget.
    if refresher is None:
        raise ConstraintUnsatisfiableError(
            "relative constraint with a zero-straddling answer requires a "
            "refresh provider"
        )
    iterative = IterativeRefreshExecutor(refresher, cost=cost)
    refreshed: set[int] = set()
    total_cost = 0.0
    bound: Bound = first_pass
    for step in iterative.steps(table, aggregate, column, 0.0, predicate):
        bound = step.bound
        total_cost = step.cumulative_cost
        if step.refreshed_tid is not None:
            refreshed.add(step.refreshed_tid)
        if not bound.contains(0.0) or bound.is_exact:
            break

    budget = constraint.resolve(bound)
    final = executor.execute(table, aggregate, column, budget, predicate, cost)
    return BoundedAnswer(
        bound=final.bound,
        refreshed=frozenset(refreshed | set(final.refreshed)),
        refresh_cost=total_cost + final.refresh_cost,
        initial_bound=first_pass,
    )
