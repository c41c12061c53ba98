"""Concurrency equivalence (ISSUE 2 acceptance).

Property, over random workloads with a deterministic simulated clock:
every answer returned under the concurrent scheduler (coalesced
refreshes, result cache, single-flight) satisfies the same precision
constraint serial execution satisfies — and, stronger, actually contains
the true master-data answer.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.batching import BatchedCostModel
from repro.service import QueryService
from repro.sql.parser import parse_statement
from repro.storage.table import Table
from repro.workloads.service import closed_loop_scripts, run_closed_loop

from tests.oracle.row_eval import evaluate_exact
from tests.service.conftest import CACHE_ID, build_netmon_system, scheduler_events

N_LINKS = 18
CLIENTS = 4
QUERIES_PER_CLIENT = 3
ABS_TOL = 1e-9


def true_value(master: Table, sql: str) -> float | None:
    """The exact answer over the master (source-side) table."""
    statement = parse_statement(sql)
    rows = [
        row for row in master.rows() if evaluate_exact(statement.predicate, row)
    ]
    if statement.aggregate == "COUNT":
        return float(len(rows))
    values = [row.number(statement.column) for row in rows]
    if not values:
        return None
    if statement.aggregate == "SUM":
        return sum(values)
    if statement.aggregate == "AVG":
        return sum(values) / len(values)
    if statement.aggregate == "MIN":
        return min(values)
    if statement.aggregate == "MAX":
        return max(values)
    raise AssertionError(f"unexpected aggregate {statement.aggregate}")


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_concurrent_answers_satisfy_serial_guarantees(seed):
    # One system to generate the workload against, then one fresh,
    # identically-built system per run so neither sees the other's
    # refreshes.
    scripts = closed_loop_scripts(
        build_netmon_system(N_LINKS, seed).cache(CACHE_ID).table("links"),
        "traffic",
        n_clients=CLIENTS,
        queries_per_client=QUERIES_PER_CLIENT,
        seed=seed,
        overlap=0.6,
    )

    # Serial reference: the classic one-at-a-time API meets every constraint.
    serial_system = build_netmon_system(N_LINKS, seed)
    for script in scripts:
        for sql in script.sqls:
            statement = parse_statement(sql)
            answer = serial_system.query(CACHE_ID, sql)
            assert answer.meets(statement.within)

    # Concurrent run on a fresh identical system.
    concurrent_system = build_netmon_system(N_LINKS, seed)
    master = concurrent_system.source("net").table("links")
    service = QueryService(
        concurrent_system,
        cost_model=BatchedCostModel(setup=5.0, marginal=1.0),
        max_inflight_per_client=QUERIES_PER_CLIENT + 1,
    )

    async def issue(client_id: str, sql: str):
        result = await service.query(CACHE_ID, sql, client_id=client_id)
        return sql, result

    result = asyncio.run(run_closed_loop(issue, scripts))
    assert result.errors == 0
    assert result.completed == CLIENTS * QUERIES_PER_CLIENT

    for sql, served in result.answers:
        statement = parse_statement(sql)
        bound = served.answer.bound
        # Same precision guarantee as serial execution...
        assert served.answer.meets(statement.within), (sql, bound)
        # ...and soundness: the interval contains the true answer.
        truth = true_value(master, sql)
        if truth is not None:
            assert bound.lo - ABS_TOL <= truth <= bound.hi + ABS_TOL, (
                sql,
                bound,
                truth,
            )

    # The deterministic clock makes the coalescing observable: every
    # refresh the concurrent run needed went through the scheduler.
    scheduler = service.scheduler
    if scheduler_events(scheduler, "plan_submitted"):
        assert scheduler_events(scheduler, "tuple_refreshed") <= scheduler_events(
            scheduler, "tuple_requested"
        )
