"""The frozen workload table of the end-to-end benchmark, and its generators.

Everything a run depends on lives here as a constant: table sizes,
topology, arrival and update rates, budget scales, latency limits.  The
server process (``server_main.py``) and the load generator (``loadgen.py``)
both import this module and rebuild the *same* seeded inputs from
``(workload, seed)`` — the program under test only ever receives generated
statements and generated master updates.

Budgets ``R`` are absolute numbers computed once from the seeded table, in
units of the per-row width a budget grants (aged bounds are about 1 wide);
the per-shape factors below were calibrated at the commit that introduced
the benchmark so that, in the steady state the update stream sustains, the
claimed share of queries has to refresh (see README.md, "How the rates and
limits were frozen").
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Iterator

from repro.extensions.batching import BatchedCostModel
from repro.replication.system import TrappSystem
from repro.storage.table import Table
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.service import build_node_table

SCHEMA_VERSION = 1

#: Logical users multiplexed over the connections through the per-request
#: ``client`` field, so admission, sticky routing and single-flight see a
#: population.
USERS = 32
#: TCP connections of the load generator; never more than cores.
CONNECTIONS = 2
#: Requests kept outstanding in the closed-loop (capacity) phase.
CLOSED_LOOP_OUTSTANDING = 16
#: The world task advances ``system.clock`` 1:1 with wall time this often.
WORLD_TICK_S = 0.02
#: Share of one world tick the update stream may occupy before the rest
#: of the due updates are carried over (the write path "cannot keep up").
WORLD_TICK_BUDGET = 0.5
#: Pure-Python kernel iterations of the host-speed probe the world task
#: runs once per tick (about 0.05 ms, 0.3 % of the server's CPU).
PROBE_ITERATIONS = 600
#: Median probe time on the box, and at the commit, where the benchmark
#: was introduced.  Wall and CPU times are reported divided by
#: ``measured probe / PROBE_REFERENCE_US`` (README.md, "Host speed").
PROBE_REFERENCE_US = 53.0
#: Bound ageing before serving: ``clock.advance(AGE_S)`` + ``sync_bounds``.
AGE_S = 100.0
#: The ``python -m repro serve`` defaults the service is built with.
SERVICE_DEFAULTS = {
    "setup_cost": 5.0,
    "marginal_cost": 1.0,
    "result_ttl": 1.0,
    "max_inflight": 64,
    "max_inflight_per_client": 8,
    "tick_interval": 0.0,
}
#: A phase whose p99 send lateness exceeds this is invalid (rerun once).
MAX_LATE_P99_MS = 10.0
#: Shares of ``--seconds`` per phase.  The untraced run is warm-up and one
#: long open loop, which every end-to-end metric comes from.  The traced
#: run splits the time between an untraced open loop (the reference for
#: the tracing overhead and the counter deltas), the same kind of schedule
#: with the span recorder on, and the closed-loop capacity phase.
PHASES_UNTRACED = {"warmup": 0.10, "open": 0.90}
PHASES_TRACED = {"warmup": 0.10, "open": 0.35, "traced": 0.35, "closed": 0.20}
#: Fewest open-loop samples a reported percentile may rest on (≥ 20
#: beyond p95).
MIN_OPEN_SAMPLES = 400
#: Statements of the quiesced contract check.
ORACLE_STATEMENTS = 40
#: Random-walk step scale: with sigma = SIGMA_SCALE / sqrt(updates per
#: object per second) the adaptive width controller settles near its
#: initial width parameter (1.0), so the aged table the budgets are
#: computed from resembles the steady state instead of decaying under it.
SIGMA_SCALE = 0.75

BOUNDED_LINK_COLUMNS = ("latency", "bandwidth", "traffic")
#: The columns the master-update stream walks.  A value-initiated refresh
#: lands a cell *outside* its cached bound.  Landing between a query's plan
#: and its recheck, that can only narrow a SUM or AVG over the walked
#: column and only decide a COUNT tuple, but it can widen an answer that
#: filters a SUM on it (a tuple jumps from certainly-out to certainly-in)
#: or takes an order statistic of it (the tuple that held MAX's lower
#: endpoint drops away), and the recheck then fails with
#: ConstraintUnsatisfiableError.  A workload must not manufacture failures,
#: so SUM predicates, MIN, MAX, MEDIAN and TOP-N read the columns that move
#: by bound growth alone (README.md, "Findings").
WALKED_COLUMNS = {"links": ("traffic",), "nodes": ("load",)}
VALUE_FLOORS = {"traffic": 0.0, "load": 0.0}


@dataclass(frozen=True)
class Workload:
    """One traffic mix: topology, rates and the statement generator's knobs."""

    name: str
    why: str
    links: int
    #: Rows of the ``nodes`` table (0 = single-table deployment).
    nodes: int
    #: Shards of the one logical source (``None`` = unsharded).
    shards: int | None
    #: Replicas of the fan-out group ``edge`` (0 = one standalone cache
    #: ``monitor``).
    replicas: int
    #: Frozen open-loop arrival rate (Poisson): the server is about a
    #: quarter busy at it, and an 18 s open loop yields over 400 samples.
    rate_qps: float
    #: Offered master-update rate (evenly spaced, seeded random walk).
    updates_per_s: float
    #: Frozen latency limit: 3 x the p95 measured at introduction (at the
    #: reference host speed, like every reported time).
    slo_ms: float
    #: Probability a request is drawn from the shared hot pool.
    overlap: float
    #: Per-row width allowance of the pool's *driver* (its most popular
    #: statement): the tightest budget, so in steady state it alone pays
    #: refreshes and every refresh-driven invalidation of the result cache
    #: is its doing.  Unused when ``overlap`` is 0.
    driver_allowance: float
    #: Allowance range of every other statement: the rest of the pool at
    #: evenly spaced positions, private variants drawn uniformly.
    row_allowance: tuple[float, float]

    @property
    def target(self) -> str:
        """The cache or group id every statement is addressed to."""
        return "edge" if self.replicas else "monitor"

    @property
    def objects(self) -> int:
        """Master cells the update stream walks."""
        return self.links + self.nodes

    @property
    def sigma(self) -> float:
        per_object = self.updates_per_s / self.objects
        return SIGMA_SCALE / math.sqrt(per_object)

    def constants(self) -> dict:
        """The frozen numbers, for the environment stamp."""
        return {
            "links": self.links,
            "nodes": self.nodes,
            "shards": self.shards,
            "replicas": self.replicas,
            "rate_qps": self.rate_qps,
            "updates_per_s": self.updates_per_s,
            "sigma": self.sigma,
            "slo_ms": self.slo_ms,
            "overlap": self.overlap,
            "driver_allowance": self.driver_allowance,
            "row_allowance": list(self.row_allowance),
            "users": USERS,
            "connections": CONNECTIONS,
            "closed_loop_outstanding": CLOSED_LOOP_OUTSTANDING,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot_overlap",
            why=(
                "85% of requests repeat 8 hot statements, so result cache, "
                "single-flight, wire and parse dominate and the executor "
                "does little: serving-tier changes must show here"
            ),
            links=240,
            nodes=0,
            shards=None,
            replicas=0,
            rate_qps=150.0,
            updates_per_s=240.0,
            slo_ms=21.0,
            overlap=0.85,
            driver_allowance=0.8,
            row_allowance=(1.6, 2.4),
        ),
        Workload(
            name="cold_scan",
            why=(
                "every request is private, so result cache and single-flight "
                "never hit and sync_bounds, classify, harvest, CHOOSE_REFRESH "
                "and refresh_batched do the work: executor changes show here"
            ),
            links=360,
            nodes=0,
            shards=None,
            replicas=0,
            rate_qps=28.0,
            updates_per_s=360.0,
            slo_ms=41.0,
            overlap=0.0,
            driver_allowance=0.0,
            row_allowance=(0.6, 1.2),
        ),
        Workload(
            name="write_storm",
            why=(
                "master updates at thousands per second beside reads on a "
                "4-shard source and a 2-replica group: prices monitor check, "
                "refresh delivery and column/index repair per update"
            ),
            links=300,
            nodes=0,
            shards=4,
            replicas=2,
            rate_qps=28.0,
            updates_per_s=6000.0,
            slo_ms=68.0,
            overlap=0.5,
            driver_allowance=0.8,
            row_allowance=(3.0, 4.5),
        ),
        Workload(
            name="mixed_classes",
            why=(
                "SUM/AVG, GROUP BY, TOP-N, MEDIAN and the links-nodes join "
                "on a 2-replica group: the only traffic through the "
                "non-single-table planners and multi-round refresh"
            ),
            links=120,
            nodes=40,
            shards=None,
            replicas=2,
            rate_qps=26.0,
            updates_per_s=200.0,
            slo_ms=110.0,
            overlap=0.5,
            driver_allowance=0.8,
            row_allowance=(1.2, 2.0),
        ),
    )
}


def miniature(workload: Workload) -> Workload:
    """The self-check profile: tiny tables and rates, same structure."""
    return replace(
        workload,
        links=max(24, workload.links // 10),
        nodes=max(8, workload.nodes // 10) if workload.nodes else 0,
        rate_qps=min(workload.rate_qps, 40.0),
        updates_per_s=min(workload.updates_per_s, 400.0),
    )


def resolve(name: str, profile: str = "full") -> Workload:
    workload = WORKLOADS[name]
    if profile == "mini":
        return miniature(workload)
    if profile != "full":
        raise ValueError(f"unknown profile {profile!r}")
    return workload


def _rng(seed: int, workload: Workload, purpose: str) -> random.Random:
    # A str seed is hashed with SHA-512, so streams for different purposes
    # are independent and identical across processes and platforms.
    return random.Random(f"{seed}:{workload.name}:{purpose}")


# ----------------------------------------------------------------------
# The deployment
# ----------------------------------------------------------------------
def build_masters(workload: Workload, seed: int) -> dict[str, Table]:
    """The seeded master tables (``links`` and, for joins, ``nodes``)."""
    rng = _rng(seed, workload, "masters")
    n_nodes = workload.nodes or max(2, workload.links // 3)
    masters = {
        "links": build_master_table(
            generate_topology(n_nodes, workload.links, rng), rng
        )
    }
    if workload.nodes:
        masters["nodes"] = build_node_table(n_nodes, rng)
    return masters


@dataclass
class Deployment:
    system: TrappSystem
    source: object
    cost_model: BatchedCostModel
    #: Wall seconds spent inside ``subscribe_table`` during set-up.
    subscribe_s: float


def build_deployment(workload: Workload, seed: int) -> Deployment:
    """Master build, cache subscription and bound ageing for one workload."""
    masters = build_masters(workload, seed)
    system = TrappSystem()
    source = system.add_source("net", shards=workload.shards)
    for table in masters.values():
        source.add_table(table)
    if workload.replicas:
        system.add_group("edge")
        caches = [
            system.add_cache(f"edge/{index}", group="edge")
            for index in range(workload.replicas)
        ]
    else:
        caches = [system.add_cache("monitor")]
    started = time.perf_counter()
    for cache in caches:
        for name in masters:
            cache.subscribe_table(source, name)
    subscribe_s = time.perf_counter() - started
    system.clock.advance(AGE_S)
    for cache in caches:
        cache.sync_bounds()
    cost_model = BatchedCostModel(
        setup=SERVICE_DEFAULTS["setup_cost"],
        marginal=SERVICE_DEFAULTS["marginal_cost"],
    )
    return Deployment(system, source, cost_model, subscribe_s)


# ----------------------------------------------------------------------
# The master-update stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Update:
    due: float
    table: str
    tid: int
    column: str
    value: float


def update_stream(workload: Workload, seed: int) -> Iterator[Update]:
    """An endless seeded Gaussian random walk over the walked master cells.

    Updates are due at an even spacing of ``1 / updates_per_s`` from the
    moment the world starts; each picks one object uniformly and moves it
    by ``N(0, sigma)``, clamped to stay physical.
    """
    masters = build_masters(workload, seed)
    rng = _rng(seed, workload, "updates")
    objects: list[tuple[str, int, str]] = []
    values: list[float] = []
    for name in sorted(masters):
        table = masters[name]
        for row in table.rows():
            for column in WALKED_COLUMNS[name]:
                objects.append((name, row.tid, column))
                values.append(row.number(column))
    sigma = workload.sigma
    spacing = 1.0 / workload.updates_per_s
    index = 0
    while True:
        slot = rng.randrange(len(objects))
        name, tid, column = objects[slot]
        value = max(VALUE_FLOORS[column], values[slot] + rng.gauss(0.0, sigma))
        values[slot] = value
        yield Update(index * spacing, name, tid, column, value)
        index += 1


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pred:
    """``left op offset`` or, with ``right``, ``left op scale*right + offset``."""

    left: str
    op: str
    offset: float
    right: str | None = None
    scale: float = 1.0

    def sql(self) -> str:
        if self.right is None:
            return f"{self.left} {self.op} {self.offset:.6f}"
        return (
            f"{self.left} {self.op} {self.scale:g} * {self.right} "
            f"+ {self.offset:.6f}"
        )


@dataclass(frozen=True)
class Statement:
    """One generated query: its SQL text plus the structure the oracle and
    the per-class metrics need (never sent to the program)."""

    sql: str
    #: Statement class: sum (scalar aggregates), groupby, topn, median, join.
    cls: str
    shape: str
    budget: float
    aggregate: str
    column: str | None
    predicate: Pred | None = None
    group_by: str | None = None
    top_n: int | None = None


def _scalar(
    shape: str, aggregate: str, column: str | None, budget: float,
    predicate: Pred | None = None,
) -> Statement:
    target = column if column is not None else "*"
    where = f" WHERE {predicate.sql()}" if predicate is not None else ""
    return Statement(
        sql=f"SELECT {aggregate}({target}) WITHIN {budget:.6f} FROM links{where}",
        cls="sum",
        shape=shape,
        budget=budget,
        aggregate=aggregate,
        column=column,
        predicate=predicate,
    )


@dataclass
class _Context:
    """What the generator knows about the seeded master tables."""

    workload: Workload
    #: Rows of ``links``.
    n: int
    #: Ascending master values per bounded ``links`` column.
    quantiles: dict[str, list[float]]
    mean: dict[str, float]
    join_rows: int

    def quantile(self, column: str, q: float) -> float:
        """A master value at quantile ``q``, rounded to the six decimals a
        predicate literal is printed with — the oracle compares against
        the number the program parsed, and a row can sit exactly on it."""
        values = self.quantiles[column]
        return round(values[min(len(values) - 1, int(q * len(values)))], 6)

    def allowance(self, rng: random.Random | None, position: float = 0.5) -> float:
        """A per-row width allowance inside the workload's frozen range:
        drawn when ``rng`` is given, else at a fixed ``position``."""
        lo, hi = self.workload.row_allowance
        if rng is None:
            return lo + (hi - lo) * position
        return rng.uniform(lo, hi)


def statement_context(workload: Workload, seed: int) -> _Context:
    masters = build_masters(workload, seed)
    master_rows = list(masters["links"].rows())
    quantiles = {
        column: sorted(row.number(column) for row in master_rows)
        for column in BOUNDED_LINK_COLUMNS
    }
    mean = {
        column: sum(values) / len(values) for column, values in quantiles.items()
    }
    join_rows = 0
    if "nodes" in masters:
        node_ids = {row["node"] for row in masters["nodes"].rows()}
        join_rows = sum(1 for row in master_rows if row["to_node"] in node_ids)
    return _Context(
        workload=workload,
        n=len(master_rows),
        quantiles=quantiles,
        mean=mean,
        join_rows=join_rows,
    )


# The statement shapes.  Each takes the context, an allowance (per-row
# width the budget grants) and returns one statement; budgets of SUM-like
# shapes are ``rows selected x allowance``, the others are expressed in
# the same unit so one knob scales a whole workload's refresh pressure.
def _sum_all(ctx: _Context, a: float, column: str = "traffic") -> Statement:
    return _scalar(f"sum_{column}", "SUM", column, ctx.n * a)


def _avg_all(ctx: _Context, a: float, column: str = "traffic") -> Statement:
    return _scalar(f"avg_{column}", "AVG", column, a)


def _min_all(ctx: _Context, a: float) -> Statement:
    return _scalar("min_latency", "MIN", "latency", a)


def _max_all(ctx: _Context, a: float) -> Statement:
    return _scalar("max_bandwidth", "MAX", "bandwidth", a)


def _undecided(ctx: _Context, a: float, column: str) -> float:
    """Budget share for tuples the predicate leaves undecided: each
    contributes its whole value (bound extended to zero), so the budget
    grants ``8% x allowance`` of the rows at the column's mean value."""
    return 0.08 * a * ctx.n * ctx.mean[column]


def _sum_half(ctx: _Context, a: float) -> Statement:
    """SUM under a ~50%-selective threshold on another bounded column."""
    threshold = ctx.quantile("latency", 0.5)
    budget = 0.5 * ctx.n * a + _undecided(ctx, a, "bandwidth")
    return _scalar(
        "sum_bandwidth_half", "SUM", "bandwidth", budget,
        Pred("latency", ">", threshold),
    )


def _sum_window(ctx: _Context, a: float) -> Statement:
    """SUM under a selective threshold: the index-window classify route."""
    threshold = ctx.quantile("bandwidth", 0.9)
    budget = 0.1 * ctx.n * a + 0.25 * _undecided(ctx, a, "latency")
    return _scalar(
        "sum_latency_window", "SUM", "latency", budget,
        Pred("bandwidth", ">", threshold),
    )


def _count_dense(ctx: _Context, a: float) -> Statement:
    """COUNT under a column-vs-column leaf: the dense classify route.

    The left-hand column is the walked one — safe under COUNT, where a
    value-initiated refresh can only *decide* a tuple — and the right-hand
    one is exact (``cost``, 1..10): with two bounded columns in one leaf a
    refresh between plan and recheck can move a decided tuple back into T?.
    """
    # The allowance also shifts the literal, so no two private requests
    # share a result-cache key although COUNT budgets are whole numbers.
    offset = round(ctx.quantile("traffic", 0.5) - 5.0 * 5.5 + 4.0 * a, 6)
    return _scalar(
        "count_dense", "COUNT", None, float(max(1, round(0.012 * ctx.n * a))),
        Pred("traffic", ">", offset, right="cost", scale=5.0),
    )


def _group_by(ctx: _Context, a: float) -> Statement:
    budget = 6.0 * a
    return Statement(
        sql=(
            f"SELECT SUM(traffic) WITHIN {budget:.6f} FROM links "
            "GROUP BY from_node"
        ),
        cls="groupby", shape="groupby_sum", budget=budget,
        aggregate="SUM", column="traffic", group_by="from_node",
    )


def _top_n(ctx: _Context, a: float) -> Statement:
    budget = 0.6 * a
    return Statement(
        sql=f"SELECT TOPN(3, bandwidth) WITHIN {budget:.6f} FROM links",
        cls="topn", shape="topn3", budget=budget,
        aggregate="TOPN", column="bandwidth", top_n=3,
    )


def _median(ctx: _Context, a: float) -> Statement:
    budget = 0.15 * a
    return Statement(
        sql=f"SELECT MEDIAN(latency) WITHIN {budget:.6f} FROM links",
        cls="median", shape="median_latency", budget=budget,
        aggregate="MEDIAN", column="latency",
    )


def _join(ctx: _Context, a: float) -> Statement:
    budget = ctx.join_rows * a
    return Statement(
        sql=(
            f"SELECT SUM(load) WITHIN {budget:.6f} FROM links, nodes "
            "WHERE to_node = node"
        ),
        cls="join", shape="join_sum_load", budget=budget,
        aggregate="SUM", column="load",
    )


_HOT_SHAPES = (
    _sum_all, _avg_all, _sum_half, _min_all,
    lambda ctx, a: _sum_all(ctx, a, "bandwidth"), _max_all,
    lambda ctx, a: _avg_all(ctx, a, "latency"), _sum_window,
)
_COLD_SHAPES = (_sum_all, _sum_window, _count_dense, _avg_all, _max_all)
_MIXED_SHAPES = (_sum_all, _group_by, _top_n, _median, _join, _avg_all)

SHAPES = {
    "hot_overlap": _HOT_SHAPES,
    "cold_scan": _COLD_SHAPES,
    "write_storm": _HOT_SHAPES,
    "mixed_classes": _MIXED_SHAPES,
}


def statement_stream(
    workload: Workload, seed: int, purpose: str, ctx: _Context | None = None
) -> Iterator[Statement]:
    """An endless seeded stream of statements for one phase.

    With probability ``overlap`` a request repeats one of the pool's hot
    statements (Zipf-weighted; the pool's budgets sit at fixed positions,
    so every seed offers the same structure: the first shape is the
    driver with the tightest budget, the rest are loose); otherwise it is
    a private variant — the next shape in the cycle with a freshly drawn
    loose budget, which keys a new result-cache entry.
    """
    ctx = ctx if ctx is not None else statement_context(workload, seed)
    shapes = SHAPES[workload.name]
    rng = _rng(seed, workload, f"statements:{purpose}")
    pool = [shapes[0](ctx, workload.driver_allowance)] + [
        shape(ctx, ctx.allowance(None, index / (len(shapes) - 1)))
        for index, shape in enumerate(shapes[1:])
    ]
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    cycle = 0
    while True:
        if rng.random() < workload.overlap:
            yield rng.choices(pool, weights)[0]
        else:
            shape = shapes[cycle % len(shapes)]
            cycle += 1
            yield shape(ctx, ctx.allowance(rng))


# ----------------------------------------------------------------------
# The request schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    due: float
    client: str
    statement: Statement


def user_id(index: int) -> str:
    return f"u{index % USERS:02d}"


def request_schedule(
    workload: Workload,
    seed: int,
    purpose: str,
    seconds: float,
    ctx: _Context | None = None,
) -> list[Request]:
    """Seeded Poisson arrivals at the workload's frozen rate.

    ``due`` is an offset from the phase start; each request is issued on
    behalf of a uniformly drawn logical user.
    """
    rng = _rng(seed, workload, f"arrivals:{purpose}")
    statements = statement_stream(workload, seed, purpose, ctx)
    requests: list[Request] = []
    due = rng.expovariate(workload.rate_qps)
    while due < seconds:
        requests.append(
            Request(due, user_id(rng.randrange(USERS)), next(statements))
        )
        due += rng.expovariate(workload.rate_qps)
    return requests
