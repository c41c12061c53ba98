"""There is one execution pipeline and it reads only the column store.

Steps 1–3 of every single-table query — whatever the aggregate, predicate
or cost function — run with row access forbidden; rows are touched only
to evaluate an untagged cost callable, on the candidates and on nothing
else.  GROUP BY runs the same way, reading one row per group for its key
values; so do the bounds the iterative and relative drivers start from.
The options that used to select other routes are gone, the row-taking
method family is gone, and neither may creep back in.
"""

from __future__ import annotations

import inspect
import math
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.aggregates import registry
from repro.core.bound import Bound
from repro.core.executor import QueryExecutor, execute_query
from repro.core.refresh.base import (
    cost_from_column,
    cost_from_sources,
    uniform_cost,
)
from repro.errors import ConstraintUnsatisfiableError
from repro.extensions.groupby import grouped_query_steps
from repro.extensions.iterative import IterativeRefreshExecutor
from repro.extensions.relative import execute_relative_query
from repro.predicates.ast import TruePredicate
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.replication.system import TrappSystem
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.protocol import classified, tids_at

SRC = Path(__file__).resolve().parents[2] / "src"

SCHEMA = Schema.of(x="bounded", cost="exact", origin="text", shard="exact", zone="text")
BUDGET = 0.5

PREDICATES = {
    "none": None,
    "exact": parse_predicate("cost >= 2 AND origin != 'c'"),
    "bounded": parse_predicate("x > 4"),
}
COSTS = {
    "uniform": uniform_cost,
    "column": cost_from_column("cost"),
    "sources": cost_from_sources("origin", {"a": 1.0, "b": 4.0}, default=2.0),
}
#: How the statement is run: the three-step executor (""), GROUP BY on an
#: exact numeric key or on a text key (two groups of six either way), or
#: only as far as the bound the iterative / relative driver starts from.
SHAPES = ("", "by_shard", "by_zone", "iterative", "relative")
GROUPS = 2

CASES = [
    pytest.param(
        aggregate, predicate_name, cost_name, shape,
        id="-".join(filter(None, (aggregate, predicate_name, cost_name, shape))),
    )
    for cost_name in sorted(COSTS)
    for predicate_name in sorted(PREDICATES)
    for aggregate in sorted(registry)
    for shape in SHAPES
    # The two drivers' first bound never prices anything.
    if cost_name == "uniform" or shape not in ("iterative", "relative")
]


def make_tables():
    cached, master = Table("t", SCHEMA), Table("t", SCHEMA)
    for index in range(12):
        lo = float(index % 7)
        row = {
            "cost": float(1 + index % 4),
            "origin": "abc"[index % 3],
            "shard": index % GROUPS,
            "zone": "pq"[index % GROUPS],
        }
        cached.insert({"x": Bound(lo, lo + 1.0 + index % 3), **row})
        master.insert({"x": lo + 0.5, **row})
    return cached, master


def _forbidden(*args, **kwargs):
    raise AssertionError("the executor touched a row")


@contextmanager
def rows_forbidden(row_reads: list | None = None):
    """No ``Table.rows``, no ``Row.bound``; ``Table.row`` only to be
    recorded in ``row_reads`` (GROUP BY reads its key values there)."""
    table_row = Table.row

    def recorded(table, tid):
        row_reads.append(tid)
        return table_row(table, tid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "rows", _forbidden)
        patch.setattr(Table, "row", _forbidden if row_reads is None else recorded)
        patch.setattr(Row, "bound", _forbidden)
        yield


@pytest.mark.parametrize("aggregate, predicate_name, cost_name, shape", CASES)
def test_every_query_runs_without_rows(aggregate, predicate_name, cost_name, shape):
    cached, master = make_tables()
    column = "x" if registry[aggregate].needs_column else None
    predicate, cost = PREDICATES[predicate_name], COSTS[cost_name]
    if shape in ("iterative", "relative"):
        _first_bound_runs_without_rows(shape, cached, aggregate, column, predicate)
        return
    if shape:
        key_reads: list | None = []
        steps = grouped_query_steps(
            cached, [shape.removeprefix("by_")], aggregate, column, BUDGET,
            predicate, cost,
        )
    else:
        key_reads = None
        steps = QueryExecutor().execute_steps(
            cached, aggregate, column, BUDGET, predicate, cost,
            rebatch_metadata=False,  # the one consumer of rows, by request
        )
    yields = 0
    try:
        with rows_forbidden(key_reads):
            request = next(steps)
        while True:
            yields += 1
            # The refresh itself is the provider's business, rows and all.
            LocalRefresher(master).refresh(cached, request.plan.tids)
            with rows_forbidden(key_reads):
                request = steps.send(request.plan)
    except StopIteration as stop:
        answer = stop.value
    if shape:
        assert len(answer.groups) == GROUPS and yields <= GROUPS
        # One row per group, read once, however many refreshes followed.
        assert len(key_reads) == GROUPS
    else:
        assert yields <= 1, "execute_steps yielded twice"
    assert answer.bound.width <= BUDGET
    # COUNT is exact from the cache unless the predicate reads bounds.
    cache_answerable = aggregate == "COUNT" and predicate_name != "bounded"
    assert bool(answer.refreshed) != cache_answerable
    assert answer.refresh_cost == sum(
        cost(cached.row(tid)) for tid in answer.refreshed
    )


def _first_bound_runs_without_rows(shape, cached, aggregate, column, predicate):
    """The bound both drivers start from is the executor's step 1."""
    expected = QueryExecutor().execute(
        cached, aggregate, column, math.inf, predicate
    ).bound
    with rows_forbidden():
        if shape == "iterative":
            bound, _ = IterativeRefreshExecutor._compute(
                cached, registry[aggregate], column, predicate or TruePredicate()
            )
        else:
            try:
                # Loose enough to be met from the cache, when the answer
                # keeps clear of zero; no refresher to go on with when not.
                bound = execute_relative_query(
                    cached, aggregate, column, 1e9, predicate
                ).initial_bound
            except ConstraintUnsatisfiableError as error:
                assert "requires a refresh provider" in str(error)
                assert expected.contains(0.0)
                return
    assert bound == expected


def test_opaque_cost_is_called_once_per_candidate():
    cached, master = make_tables()
    predicate = PREDICATES["bounded"]
    plus, maybe = classified(cached, predicate)
    candidates = sorted(tids_at(cached, plus) | tids_at(cached, maybe))
    assert len(candidates) < len(cached), "the instance needs a T− tuple to avoid"
    calls: list[int] = []

    def cost(row):
        assert row.tid in candidates, f"priced T− tuple {row.tid}"
        calls.append(row.tid)
        return 1.0 + row.tid % 3

    answer = QueryExecutor(refresher=LocalRefresher(master)).execute(
        cached, "SUM", "x", BUDGET, predicate, cost
    )
    assert answer.refreshed and answer.bound.width <= BUDGET
    assert sorted(calls) == candidates


@pytest.mark.parametrize(
    "entry_point",
    [QueryExecutor.__init__, execute_query, TrappSystem.__init__],
    ids=["QueryExecutor", "execute_query", "TrappSystem"],
)
def test_route_options_are_gone(entry_point):
    parameters = inspect.signature(entry_point).parameters
    assert not {"columnar", "vector_planner"} & set(parameters)


def test_executor_probes_nothing_and_src_never_imports_tests():
    executor = (SRC / "repro" / "core" / "executor.py").read_text()
    assert "hasattr(" not in executor
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in SRC.rglob("*.py")
    }
    imports_tests = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
    assert not [name for name, text in sources.items() if imports_tests.search(text)]
    # One method family: no suffixed twin anywhere, and no aggregate or
    # chooser that could take a Row (``CostFunc`` is declared in base.py).
    assert not [name for name, text in sources.items() if "_columnar" in text]
    assert not [
        name
        for name, text in sources.items()
        if name.startswith(("core/aggregates/", "core/refresh/"))
        and name != "core/refresh/base.py"
        and "repro.storage.row" in text
    ]
