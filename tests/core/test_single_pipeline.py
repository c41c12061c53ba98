"""There is one execution pipeline and it reads only the column store.

Steps 1–3 of every single-table query — whatever the aggregate, predicate
or cost model — run with row access forbidden; rows are touched only to
evaluate a bare cost callable, on the candidates and on nothing else.
GROUP BY runs the same way, its key values read from the store's object
arrays; so do §8.2's iterative rounds, a §8.1 relative constraint, and the
scheduler's §8.2 rebatch pass between a plan and its dispatch.  The store
is the only copy of every cell: rows are read-only records built from it.
The options that used to select other routes are gone, the row-taking
method family is gone, the service's sync deferral is gone, the refresh
loop is written once, and none of them may creep back in.
"""

from __future__ import annotations

import asyncio
import inspect
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.aggregates import registry
from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.core.executor import QueryExecutor, execute_query, iterative_steps
from repro.core.refresh.base import uniform_cost
from repro.extensions.batching import BatchedCostModel
from repro.extensions.groupby import grouped_query_steps
from repro.predicates.parser import parse_predicate
from repro.replication import (
    ColumnCostModel,
    PerSourceCostModel,
    TableCostModel,
    TrappSystem,
)
from repro.replication.local import LocalRefresher
from repro.service.scheduler import RefreshScheduler
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.protocol import classified, row_cost, tids_at
from tests.service.conftest import FakeCache

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
    "column": ColumnCostModel("cost"),
    "sources": PerSourceCostModel({"a": 1.0, "b": 4.0}, 2.0, "origin"),
    "shards": PerSourceCostModel({0.0: 3.0}, 1.0, "shard"),
    "tids": TableCostModel({tid: 1.0 + tid % 3 for tid in range(1, 9)}, 2.0),
}
#: How the statement is run: the three-step executor (""), GROUP BY on an
#: exact numeric key or on a text key (two groups of six either way),
#: §8.2's one-tuple rounds, or the executor under a relative constraint.
#: "rebatch" is one more: a two-source SUM plan through the scheduler.
SHAPES = ("", "by_shard", "by_zone", "iterative", "relative")
GROUPS = 2
RELATIVE = RelativePrecision(0.05)

CASES = [
    pytest.param(
        aggregate, predicate_name, cost_name, shape,
        id="-".join(filter(None, (aggregate, predicate_name, cost_name, shape))),
    )
    for cost_name in sorted(COSTS)
    for predicate_name in sorted(PREDICATES)
    for aggregate in sorted(registry)
    for shape in SHAPES
] + [pytest.param("SUM", "none", "uniform", "rebatch", id="SUM-rebatch")]


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
    recorded in ``row_reads``."""
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
    if shape == "rebatch":
        _rebatch_runs_without_rows()
        return
    key_reads: list | None = None
    if shape.startswith("by_"):
        key_reads = []
        steps = grouped_query_steps(
            cached, [shape.removeprefix("by_")], aggregate, column, BUDGET,
            predicate, cost,
        )
    elif shape == "iterative":
        steps = iterative_steps(cached, aggregate, column, BUDGET, predicate, cost)
    else:
        constraint = RELATIVE if shape == "relative" else BUDGET
        steps = QueryExecutor().execute_steps(
            cached, aggregate, column, constraint, predicate, cost
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
    if key_reads is not None:
        assert len(answer.groups) == GROUPS and yields <= GROUPS
        # The keys come from the store's object arrays: no row is read.
        assert len(key_reads) == 0
    elif shape == "iterative":
        assert yields == len(answer.refreshed)
    elif not shape:
        assert yields <= 1, "execute_steps yielded twice"
    if shape == "relative":
        assert RELATIVE.satisfied_by(answer.bound)
    else:
        assert answer.bound.width <= BUDGET
        # COUNT is exact from the cache unless the predicate reads bounds.
        cache_answerable = aggregate == "COUNT" and predicate_name != "bounded"
        assert bool(answer.refreshed) != cache_answerable
    assert answer.refresh_cost == sum(
        row_cost(cost)(cached.row(tid)) for tid in answer.refreshed
    )


def _rebatch_runs_without_rows():
    """A plan the §8.2 pass changes, from CHOOSE_REFRESH to dispatch."""
    table = Table("t", Schema.of(x="bounded"))
    for width in (10.0, 7.0, 6.0):
        table.insert({"x": Bound(0.0, width)})
    cache = FakeCache({1: "a", 2: "b", 3: "a"})
    scheduler = RefreshScheduler(cost_model=BatchedCostModel(setup=50.0, marginal=1.0))
    steps = QueryExecutor().execute_steps(table, "SUM", "x", 8.0)

    async def plan_and_dispatch():
        with rows_forbidden():
            request = next(steps)
            return request, await scheduler.submit(cache, request)

    request, effective = asyncio.run(plan_and_dispatch())
    # Keeping tuple 3 leaves 2 of the budget unused: swapping tuple 2 for
    # it gives the slack back and saves source b's setup.
    assert request.plan.tids == {1, 2} and effective.tids == {1, 3}
    assert cache.calls == [frozenset({1, 3})]
    assert effective.total_cost == 52.0


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
    # One price list: ``costs_at``.  The tag, its adapters and the §8.2
    # row metadata are gone, and rebatching knows no row.
    gone = re.compile(
        "vector_cost|as_func|rebatch_metadata|_TickCostModel|cost_vector"
        "|naive_upper_bound"
    )
    assert not [name for name, text in sources.items() if gone.search(text)]
    for name in ("extensions/batching.py", "service/scheduler.py"):
        assert "repro.storage.row" not in sources[name]
    # One answer to a bound that widened under a plan: plan again.  Sync
    # deferral, its cap, its generation counter and revalidation are gone.
    deferral = re.compile(
        "max_sync_deferrals|StaleRefreshError|_suspended_by_cache"
        "|_sync_generation|_revalidate"
    )
    assert not [name for name, text in sources.items() if deferral.search(text)]
    # §8.2 rebatching is one pass at any plan size: no size fence.
    assert not [name for name, text in sources.items() if "rebatch_limit" in text]
    # One refresh loop: the §8.1 relative and §8.2 iterative drivers, the
    # refresh hook and the join's iteration cap are gone, and only the
    # loop itself knows the re-plan cap.
    drivers = re.compile(
        "IterativeRefreshExecutor|RefreshStep|execute_relative_query"
        "|RefreshHook|refresh_hook|max_iterations"
    )
    assert not [name for name, text in sources.items() if drivers.search(text)]
    assert [
        name for name, text in sources.items() if "MAX_PLAN_ROUNDS" in text
    ] == ["core/executor.py"]
    # One copy of every cell: the column store.  A table holds no rows,
    # a row is never written, and the row↔store sync machinery is gone.
    sync = re.compile(
        r"bulk_stamp|load_bounds|_sink|_stamp\b|_attach|_detach|_PLACEHOLDER|_rows\b"
    )
    assert not [
        name
        for name, text in sources.items()
        if name.startswith("storage/") or name == "replication/cache.py"
        if sync.search(text)
    ]
    assert not re.search(r"def (set|copy)\b", sources["storage/row.py"])
