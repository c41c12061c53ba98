"""Property: every statement class keeps the paper's contract while the
master moves between a plan and its recheck.

§5's "refresh T_R, then the bound meets R" holds while the master and
the clock stand still during a plan; under §3's value-initiated refreshes
they do not.  Hypothesis drives :func:`repro.sql.steps.plan_steps` by
hand on a 30-link deployment and, between a yield and its ``send``, fires
any of: a master update inside, above or below the cell's cached bound
(the last two push a value-initiated refresh), a 10 ms clock advance plus
``sync_bounds``, and the yielded refresh itself — before, between or
after the others.  Every answer must contain the ``math.fsum`` of the
master values and meet R (``tests/oracle/contract.py``): a recheck that
misses R plans again.  Master values sit on a quarter grid, so a sum of
exact values is exact in float64 and containment needs no slack.  The
relative shapes (§8.1) run the executor under ``RelativePrecision(P)``,
R re-resolved from every bound.

Interference stops after the third yield, so every statement finishes in
a few rounds; the round cap is ``tests/core/test_replan.py``'s subject.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.extensions.median_spec  # noqa: F401  (registers MEDIAN)
from repro.core.constraints import RelativePrecision
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.sql.compiler import compile_statement
from repro.sql.parser import parse_statement
from repro.sql.steps import plan_steps
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.service import build_node_table
from tests.oracle.contract import Statement, contract_violations, exact_answers

CACHE_ID = "monitor"
N_LINKS = 30
#: Yields after which nothing lands between a yield and its send.
INTERFERING_YIELDS = 3

LATENCY_OVER_5 = ("latency", ">", 5.0)
#: Every bound starts 20 wide: budgets on multiples of 20 leave a plan no
#: slack for a bound that widens under it.
STATEMENTS = [
    Statement("SUM", "traffic", 0.0),
    Statement("SUM", "traffic", 200.0),
    Statement("SUM", "traffic", 60.0, LATENCY_OVER_5),
    Statement("SUM", "traffic", 200.0, LATENCY_OVER_5),
    Statement("AVG", "traffic", 2.0),
    Statement("AVG", "traffic", 5.0, LATENCY_OVER_5),
    Statement("COUNT", None, 2.0, LATENCY_OVER_5),
    Statement("MIN", "latency", 0.5),
    Statement("MIN", "traffic", 0.5, LATENCY_OVER_5),
    Statement("MAX", "traffic", 0.5),
    Statement("MAX", "traffic", 5.0, LATENCY_OVER_5),
    Statement("MEDIAN", "latency", 1.0),
    Statement("MEDIAN", "traffic", 5.0, LATENCY_OVER_5),
    Statement("SUM", "traffic", 20.0, group_by="from_node"),
    Statement("MAX", "traffic", 0.5, group_by="from_node"),
    Statement("TOPN", "traffic", 0.5, top_n=3),
    Statement("SUM", "load", 100.0, join=True),
    Statement("SUM", "traffic", 0.02, relative=True),
    Statement("SUM", "traffic", 0.1, LATENCY_OVER_5, relative=True),
    Statement("AVG", "traffic", 0.05, relative=True),
    Statement("AVG", "traffic", 0.01, LATENCY_OVER_5, relative=True),
]

#: ``("update", planned?, pick, where, step)`` or ``("tick",)``.
EVENTS = st.one_of(
    st.tuples(
        st.just("update"),
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["inside", "above", "below"]),
        st.integers(min_value=1, max_value=400),
    ),
    st.just(("tick",)),
)


def on_grid(value: float) -> float:
    return round(value * 4.0) / 4.0


def build_system(seed: int) -> TrappSystem:
    """``links`` and ``nodes`` on one source, bounds 20 wide, values on
    the quarter grid."""
    rng = random.Random(seed)
    links = build_master_table(generate_topology(N_LINKS // 3, N_LINKS, rng), rng)
    nodes = build_node_table(N_LINKS // 3, rng)
    system = TrappSystem()
    source = system.add_source("net")
    cache = system.add_cache(CACHE_ID)
    for table in (links, nodes):
        for column in table.schema.bounded_columns:
            for row in table.rows():
                table.update_value(
                    row.tid, column.name, on_grid(row.number(column.name))
                )
        source.add_table(table)
        cache.subscribe_table(source, table.name)
    system.clock.advance(100.0)
    cache.sync_bounds()
    return system


def update(system: TrappSystem, request, event) -> None:
    """A master write on a tuple of the planned table — one of the planned
    tuples, or any — inside, above or below its cached bound."""
    _, planned, pick, where, step = event
    table = request.table
    tids = sorted(request.plan.tids) if planned else table.tids()
    tid = tids[pick % len(tids)]
    columns = [column.name for column in table.schema.bounded_columns]
    column = columns[pick % len(columns)]
    bound = table.row(tid).bound(column)
    lo, hi = math.ceil(bound.lo * 4.0), math.floor(bound.hi * 4.0)
    if where == "inside":
        if lo > hi:
            return  # no grid point inside
        value = (lo + step % (hi - lo + 1)) / 4.0
    elif where == "above":
        value = (hi + step) / 4.0
    else:
        value = (lo - step) / 4.0
    system.source("net").apply_update(ObjectKey(table.name, tid, column), value)


def drive(system: TrappSystem, statement: Statement, data):
    """Drive the statement's steps, interfering between yield and send.

    Returns the answer and the exact answers as the master stood during
    each call into the generator."""
    cache = system.cache(CACHE_ID)
    cache.sync_bounds()
    plan = compile_statement(parse_statement(statement.sql), cache.catalog)
    executor = system.executor_for(CACHE_ID)
    if statement.relative:
        steps = executor.execute_steps(
            plan.table, plan.aggregate, plan.column,
            RelativePrecision(statement.within), plan.predicate,
        )
    else:
        steps = plan_steps(plan, executor)
    source = system.source("net")
    masters = {name: source.table(name) for name in ("links", "nodes")}
    truths = [exact_answers(statement, masters)]
    yields = 0
    try:
        request = next(steps)
        while True:
            events = []
            if yields < INTERFERING_YIELDS:
                events = data.draw(st.lists(EVENTS, max_size=2), label="events")
            at = data.draw(st.integers(0, len(events)), label="refresh at")
            for event in [*events[:at], ("refresh",), *events[at:]]:
                if event[0] == "refresh":
                    cache.refresh(request.table, request.plan.tids)
                elif event[0] == "tick":
                    system.clock.advance(0.01)
                    cache.sync_bounds()
                else:
                    update(system, request, event)
            yields += 1
            truths.append(exact_answers(statement, masters))
            request = steps.send(request.plan)
    except StopIteration as stop:
        return stop.value, truths


@given(
    statement=st.sampled_from(STATEMENTS),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_every_answer_contains_the_truth_and_meets_r(statement, seed, data):
    answer, truths = drive(build_system(seed), statement, data)
    assert not contract_violations(statement, answer, truths), statement
