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
loop is written once, the one-row predicate semantics, the callerless
``Bound`` helpers and the unserved §8 sketches live outside ``src/``,
one tick policy, one router and one pricing path are served, the data
alone choose the knapsack solver and the shard placement, every statement
class is one generator that ``drive_steps`` alone drives serially, and
none of the others may creep back in.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.aggregates import registry
from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.core.executor import drive_steps, iterative_steps, table_steps
from repro.core.knapsack import solve_vector
from repro.core.refresh import AvgChooseRefresh, SumChooseRefresh, get_choose_refresh
from repro.core.refresh.base import uniform_cost
from repro.extensions.batching import BatchedCostModel
from repro.extensions.groupby import grouped_query_steps
from repro.extensions.topn import top_n_steps
from repro.joins.refresh import join_steps
from repro.predicates.parser import parse_predicate
from repro.replication import (
    CacheGroup,
    ColumnCostModel,
    DataCache,
    PerSourceCostModel,
    TrappSystem,
)
from repro.replication.local import LocalRefresher
from repro.replication.sharding import ShardedSource
from repro.service import QueryService
from repro.service.results import ResultCache
from repro.service.scheduler import RefreshScheduler
from repro.sql.steps import plan_steps
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from tests.protocol import TableCostModel, classified, row_cost, tids_at
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
        steps = table_steps(cached, aggregate, column, constraint, predicate, cost)
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
    steps = table_steps(table, "SUM", "x", 8.0)

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

    steps = table_steps(cached, "SUM", "x", BUDGET, predicate, cost)
    answer = drive_steps(steps, LocalRefresher(master))
    assert answer.refreshed and answer.bound.width <= BUDGET
    assert sorted(calls) == candidates


@pytest.mark.parametrize(
    "entry_point",
    [
        TrappSystem.__init__,
        QueryService.__init__,
        QueryService.query,
        RefreshScheduler.__init__,
        BatchedCostModel,
        Telemetry.__init__,
        MetricsRegistry.__init__,
        Tracer.__init__,
        SumChooseRefresh.__init__,
        AvgChooseRefresh.__init__,
        get_choose_refresh,
        solve_vector,
        grouped_query_steps,
        table_steps,
        join_steps,
        top_n_steps,
        plan_steps,
        TrappSystem.query,
        TrappSystem.add_source,
        ShardedSource.create,
        ResultCache.make_key,
    ],
    ids=[
        "TrappSystem",
        "QueryService",
        "QueryService.query",
        "RefreshScheduler",
        "BatchedCostModel",
        "Telemetry",
        "MetricsRegistry",
        "Tracer",
        "SumChooseRefresh",
        "AvgChooseRefresh",
        "get_choose_refresh",
        "solve_vector",
        "grouped_query_steps",
        "table_steps",
        "join_steps",
        "top_n_steps",
        "plan_steps",
        "TrappSystem.query",
        "TrappSystem.add_source",
        "ShardedSource.create",
        "ResultCache.make_key",
    ],
)
def test_route_options_are_gone(entry_point):
    parameters = set(inspect.signature(entry_point).parameters)
    assert not {"columnar", "vector_planner"} & parameters
    # Counters are read from the registry, always on; the service takes
    # no option that the code works out or that nobody sets.
    assert not {
        "enabled", "telemetry_enabled", "cross_cache", "rebatch",
        "result_cache_size",
    } & parameters
    if entry_point is QueryService.query:
        assert not {"precision_floor", "max_inflight"} & parameters
    # One tick policy, one router, one pricing path: the fixed tick, the
    # sticky hash and the configured ``setup + marginal·k``.
    assert not {
        "adaptive_tick", "tick_min", "tick_max", "router", "calibrator",
    } & parameters
    # The data choose the solver and the placement: no switch forces a
    # knapsack route, turns Appendix D refinement off or places tuples by
    # key.  ε is set where a SUM/AVG chooser is built, and the service
    # plans every request at the one price the wire can name.
    assert not {
        "force_exact", "force_approx", "refine_bounds", "partitioner",
        "exact_profit_limit",
    } & parameters
    if entry_point not in (
        SumChooseRefresh.__init__, AvgChooseRefresh.__init__, solve_vector
    ):
        assert "epsilon" not in parameters
    if entry_point is QueryService.query:
        assert "cost" not in parameters
    # One driver applies refreshes: no statement or dispatcher is handed
    # a refresher or an executor object.
    assert not {"executor", "refresher"} & parameters
    # Faults come from the objects that fail, not from an injector
    # handed to the service or its scheduler.
    assert "fault_injector" not in parameters
    # Nothing parks a tick or swaps the deployment's telemetry: each
    # service builds its own registry and tracer.
    assert not {"network_delay", "telemetry", "trace_capacity"} & parameters


STATEMENT_STEPS = [table_steps, join_steps, grouped_query_steps, top_n_steps]


@pytest.mark.parametrize("steps", STATEMENT_STEPS, ids=lambda f: f.__name__)
def test_statement_generators_share_one_argument_order(steps):
    """``(tables…, shape…, constraint, predicate=None, cost=uniform_cost)``:
    every statement class is one generator function of that shape."""
    assert inspect.isgeneratorfunction(steps)
    parameters = list(inspect.signature(steps).parameters.values())
    assert [p.name for p in parameters[-3:]] == ["constraint", "predicate", "cost"]
    assert parameters[-2].default is None
    assert parameters[-1].default is uniform_cost
    assert inspect.signature(plan_steps).parameters["cost"].default is uniform_cost


def test_executor_probes_nothing_and_src_never_imports_tests():
    executor = (SRC / "repro" / "core" / "executor.py").read_text()
    assert "hasattr(" not in executor
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in SRC.rglob("*.py")
    }
    imports_outside = re.compile(
        r"^\s*(from|import)\s+(tests|examples)\b", re.MULTILINE
    )
    assert not [name for name, text in sources.items() if imports_outside.search(text)]
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
    # ``src/`` is the code that answers queries.  The one-row predicate
    # semantics are oracles in tests/oracle/, and the §8 sketches no route
    # serves are in examples/section8/; neither comes back as a name.
    moved = re.compile(
        r"Trilean|cmp_(lt|le|gt|ge|eq|ne)\b|evaluate_trilean|evaluate_exact"
        "|VersionedTable|ContinuousQuery|ChurnBuffer|PathQueryExecutor"
    )
    assert not [name for name, text in sources.items() if moved.search(text)]
    # So are the interval helpers no served route calls: free functions
    # in tests/oracle/row_eval.py, neither ``Bound`` methods nor called.
    helpers = re.compile(
        r"\b(def |\.)(shift|around|clamp|intersect|contains_bound|is_finite)\b"
    )
    assert not [name for name, text in sources.items() if helpers.search(text)]
    for package, modules in {
        "extensions": {"batching", "groupby", "median_spec", "topn"},
        "predicates": {"ast", "batch", "parser"},
        "faults": {"breaker", "retry"},
        "simulation": {"clock"},
        "workloads": {"netmon", "queries", "service"},
    }.items():
        files = {path.name for path in (SRC / "repro" / package).glob("*.py")}
        assert files == {f"{module}.py" for module in modules | {"__init__"}}
    # One counter surface: the registry, always on.  The attribute and
    # dict views over it, the disabled mode, the per-call admission
    # overrides and the column store's historical spellings are gone.
    views = re.compile(
        r"SchedulerStats|_NullChild|_NullTrace|ClientSession|telemetry_enabled"
        r"|fault_counts|_build_width_order|_UNINDEXED|def stats\("
    )
    assert not [name for name, text in sources.items() if views.search(text)]
    # ``src/`` keeps only what a deployment runs: no adaptive tick, no
    # alternative router, no measured-cost calibrator or its network, no
    # autoscaler loop (that one lives beside its golden test).
    unserved = re.compile(
        r"CostCalibrator|NetworkProber|LatencyNetwork|CacheRouter"
        r"|LeastLoadedRouter|WidestBoundsRouter|GroupAutoscaler|TICK_QUANTUM"
        r"|tick_grow|current_table_width"
    )
    assert not [name for name, text in sources.items() if unserved.search(text)]
    # One placement, round-robin on tuple id.
    wrappers = re.compile(r"execute_query|KeyPartitioner|hash_by_key|range_by_key")
    assert not [name for name, text in sources.items() if wrappers.search(text)]
    # One generator per statement class and one serial driver,
    # ``drive_steps``: no executor object, no per-cache memo of one, and
    # no serial twin of a generator.  TOP-N reads the store, not rows.
    serial = re.compile(
        r"QueryExecutor|executor_for|query_ast|execute_join_query"
        r"|JoinRefreshHeuristic|bounded_top_n|def grouped_query\("
    )
    assert not [name for name, text in sources.items() if serial.search(text)]
    assert "repro.storage.row" not in sources["extensions/topn.py"]
    # Faults come from the objects that fail: no injector seam, no chaos
    # schedule and no injected-latency histogram.  The fault double that
    # acts on sources and caches lives in tests/faults/double.py.
    seam = re.compile(r"fault_injector|FaultInjector|chaos|contact_latency")
    assert not [name for name, text in sources.items() if seam.search(text)]
    # The paper's experiment drivers and §8.1/§8.3 sketches are in
    # examples/section8/, the deployments the service tests share and the
    # per-tuple cost table in tests/, and no tick is parked by a knob: a
    # test wraps the scheduler's ``_run_tick`` instead.
    experiments = re.compile(
        r"SimulationEngine|HierarchicalCache|PiggybackPolicy|TableCostModel"
        r"|volatile_stock_day|sharded_service_system|mixed_service_system"
        r"|regional_cache_system|network_delay"
    )
    assert not [name for name, text in sources.items() if experiments.search(text)]


#: Where a refresh batch gets its price.  ``cost_model=None`` on the
#: membership calls is the per-cache override ("price this replica at the
#: deployment's"); every other price parameter defaults to a price.
PRICED_ENTRY_POINTS = [
    RefreshScheduler.__init__,
    QueryService.__init__,
    QueryService.admit_replica,
    TrappSystem.add_cache,
    TrappSystem.admit_cache,
    CacheGroup.add_replica,
    CacheGroup.admit_replica,
    CacheGroup.cost_model_for,
    CacheGroup.leader_for_source,
    CacheGroup.pricing_model,
    DataCache.refresh_batched,
    DataCache.adopt_snapshot,
]
PER_CACHE_OVERRIDES = {
    QueryService.admit_replica,
    TrappSystem.add_cache,
    TrappSystem.admit_cache,
    CacheGroup.add_replica,
    CacheGroup.admit_replica,
}


def test_uniform_is_a_price_not_none():
    """One price type prices every refresh batch: the uniform model is
    ``UNIFORM_PRICE``, not ``None`` threaded through the pricing path,
    and the by-hand uniform pricing and its lazily built minimum model
    are gone."""
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in SRC.rglob("*.py")
    }
    gone = re.compile(
        r"BatchCostFunc|_MIN_MODEL_CLS|_min_cost_model_class|_model_or_default"
    )
    assert not [name for name, text in sources.items() if gone.search(text)]
    for entry_point in PRICED_ENTRY_POINTS:
        parameters = inspect.signature(entry_point).parameters
        for name in ("cost_model", "default_model", "price"):
            if name == "cost_model" and entry_point in PER_CACHE_OVERRIDES:
                continue
            if name in parameters:
                assert parameters[name].default is not None, (
                    entry_point.__qualname__,
                    name,
                )
    assert "price" in inspect.signature(DataCache.refresh_batched).parameters


def test_server_start_loads_no_experiment_driver():
    """``import repro.__main__`` (every ``serve`` and ``demo``) loads none
    of the modules that moved out of ``src/``, and nothing from
    ``tests`` or ``examples``, although the probe runs from the
    repository root, where both are importable."""
    moved = [
        "repro.extensions.hierarchy",
        "repro.extensions.prerefresh",
        "repro.simulation.engine",
        "repro.simulation.events",
        "repro.simulation.random_walk",
        "repro.workloads.stocks",
    ]
    probe = (
        "import json, sys, repro.__main__; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(result.stdout)
    assert not set(moved) & set(loaded)
    assert not [
        name for name in loaded
        if name.split(".")[0] in ("tests", "examples", "section8")
    ]
