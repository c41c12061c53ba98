"""One step protocol for every statement class.

The compiler produces four plan shapes (§4 single-table, §7 join, §8.1
GROUP BY and TOP-N); each has its own execution machinery, but all of
them speak the executor's ``PlannedRefresh`` generator protocol.
:func:`plan_steps` is the single dispatch point that turns any compiled
plan into an :class:`~repro.core.executor.ExecutionSteps` generator, so
callers — the serial :meth:`~repro.replication.system.TrappSystem.query`
and the concurrent :class:`~repro.service.QueryService` — drive every
statement class identically.  Serial and concurrent answers then agree
by construction: both sides run the *same* generator, differing only in
who applies the yielded refresh plans.
"""

from __future__ import annotations

from repro.core.executor import ExecutionSteps, QueryExecutor, drive_steps
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.sql.compiler import (
    AnyQueryPlan,
    GroupByQueryPlan,
    JoinQueryPlan,
    QueryPlan,
    TopNQueryPlan,
)

__all__ = ["plan_steps", "drive_steps"]


def plan_steps(
    plan: AnyQueryPlan,
    executor: QueryExecutor,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """The execution-steps generator for any compiled plan.

    ``executor`` supplies the single-table machinery and the planner
    configuration shared by the extension generators (``epsilon``); its
    ``refresher`` is *not* consulted — whoever drives the returned
    generator owns refresh application (serially via
    :func:`~repro.core.executor.drive_steps`, or through a scheduler).
    """
    if isinstance(plan, QueryPlan):
        return executor.execute_steps(
            plan.table,
            plan.aggregate,
            plan.column,
            plan.constraint,
            plan.predicate,
            cost,
        )
    if isinstance(plan, JoinQueryPlan):
        from repro.joins.refresh import JoinRefreshHeuristic

        heuristic = JoinRefreshHeuristic(plan.tables, None, cost=cost)
        return heuristic.execute_steps(
            plan.aggregate, plan.column, plan.constraint.width, plan.predicate
        )
    if isinstance(plan, GroupByQueryPlan):
        from repro.extensions.groupby import grouped_query_steps

        return grouped_query_steps(
            plan.table,
            plan.group_by,
            plan.aggregate,
            plan.column,
            plan.constraint.width,
            plan.predicate,
            cost,
            epsilon=executor.epsilon,
        )
    if isinstance(plan, TopNQueryPlan):
        from repro.extensions.topn import top_n_steps

        return top_n_steps(
            plan.table,
            plan.n,
            plan.column,
            plan.constraint.width,
            plan.predicate,
            cost,
        )
    raise TypeError(f"unknown query plan type {type(plan).__name__}")
