"""There is one execution pipeline and it reads only the column store.

Steps 1–3 of every single-table query — whatever the aggregate, predicate
or cost function — run with row access forbidden; rows are touched only
to evaluate an untagged cost callable, on the candidates and on nothing
else.  The options that used to select other routes are gone, and the
row pipeline may not creep back in.
"""

from __future__ import annotations

import inspect
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
from repro.predicates.classify import classify
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.replication.system import TrappSystem
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table

SRC = Path(__file__).resolve().parents[2] / "src"

SCHEMA = Schema.of(x="bounded", cost="exact", origin="text")
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


def make_tables():
    cached, master = Table("t", SCHEMA), Table("t", SCHEMA)
    for index in range(12):
        lo = float(index % 7)
        row = {"cost": float(1 + index % 4), "origin": "abc"[index % 3]}
        cached.insert({"x": Bound(lo, lo + 1.0 + index % 3), **row})
        master.insert({"x": lo + 0.5, **row})
    return cached, master


def _forbidden(*args, **kwargs):
    raise AssertionError("the executor touched a row")


@contextmanager
def rows_forbidden():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "rows", _forbidden)
        patch.setattr(Table, "row", _forbidden)
        patch.setattr(Row, "bound", _forbidden)
        yield


@pytest.mark.parametrize("cost_name", sorted(COSTS))
@pytest.mark.parametrize("predicate_name", sorted(PREDICATES))
@pytest.mark.parametrize("aggregate", sorted(registry))
def test_every_query_runs_without_rows(aggregate, predicate_name, cost_name):
    cached, master = make_tables()
    column = "x" if registry[aggregate].needs_column else None
    steps = QueryExecutor().execute_steps(
        cached, aggregate, column, BUDGET,
        PREDICATES[predicate_name], COSTS[cost_name],
        rebatch_metadata=False,  # the one consumer of rows, by request
    )
    try:
        with rows_forbidden():
            request = next(steps)
        # The refresh itself is the provider's business, rows and all.
        LocalRefresher(master).refresh(cached, request.plan.tids)
        with rows_forbidden():
            steps.send(request.plan)
    except StopIteration as stop:
        answer = stop.value
    else:  # pragma: no cover - the generator yields at most once
        raise AssertionError("execute_steps yielded twice")
    assert answer.bound.width <= BUDGET
    # COUNT is exact from the cache unless the predicate reads bounds.
    cache_answerable = aggregate == "COUNT" and predicate_name != "bounded"
    assert bool(answer.refreshed) != cache_answerable
    assert answer.refresh_cost == sum(
        COSTS[cost_name](cached.row(tid)) for tid in answer.refreshed
    )


def test_opaque_cost_is_called_once_per_candidate():
    cached, master = make_tables()
    predicate = PREDICATES["bounded"]
    partition = classify(cached.rows(), predicate)
    assert partition.minus, "the instance needs a T− tuple to avoid"
    candidates = sorted(row.tid for row in partition.plus_or_maybe)
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
    imports_tests = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if imports_tests.search(path.read_text())
    ]
    assert not offenders
