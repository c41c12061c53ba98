"""One step protocol for every statement class.

The compiler produces four plan shapes (§4 single-table, §7 join, §8.1
GROUP BY and TOP-N); each is one generator speaking the executor's
``PlannedRefresh`` protocol — :func:`~repro.core.executor.table_steps`,
:func:`~repro.joins.refresh.join_steps`,
:func:`~repro.extensions.groupby.grouped_query_steps` and
:func:`~repro.extensions.topn.top_n_steps`, all taking ``(tables…,
shape…, constraint, predicate, cost)``.  :func:`plan_steps` is the single
dispatch point that turns any compiled
plan into an :class:`~repro.core.executor.ExecutionSteps` generator, so
callers — the serial :meth:`~repro.replication.system.TrappSystem.query`
and the concurrent :class:`~repro.service.QueryService` — drive every
statement class identically.  Serial and concurrent answers then agree
by construction: both sides run the *same* generator, differing only in
who applies the yielded refresh plans.
"""

from __future__ import annotations

from repro.core.executor import ExecutionSteps, drive_steps, table_steps
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.extensions.groupby import grouped_query_steps
from repro.extensions.topn import top_n_steps
from repro.sql.compiler import (
    AnyQueryPlan,
    GroupByQueryPlan,
    JoinQueryPlan,
    QueryPlan,
    TopNQueryPlan,
)

__all__ = ["plan_steps", "drive_steps"]


def plan_steps(plan: AnyQueryPlan, cost: CostFunc = uniform_cost) -> ExecutionSteps:
    """The execution-steps generator for any compiled plan.

    Whoever drives the returned generator owns refresh application
    (serially via :func:`~repro.core.executor.drive_steps`, or through a
    scheduler).
    """
    if isinstance(plan, QueryPlan):
        return table_steps(
            plan.table, plan.aggregate, plan.column, plan.constraint,
            plan.predicate, cost,
        )
    if isinstance(plan, JoinQueryPlan):
        # Loaded on the first join: a deployment serving none never pays
        # for importing it.
        from repro.joins.refresh import join_steps

        return join_steps(
            plan.tables, plan.aggregate, plan.column, plan.constraint,
            plan.predicate, cost,
        )
    if isinstance(plan, GroupByQueryPlan):
        return grouped_query_steps(
            plan.table, plan.group_by, plan.aggregate, plan.column,
            plan.constraint, plan.predicate, cost,
        )
    if isinstance(plan, TopNQueryPlan):
        return top_n_steps(
            plan.table, plan.n, plan.column, plan.constraint, plan.predicate, cost
        )
    raise TypeError(f"unknown query plan type {type(plan).__name__}")
