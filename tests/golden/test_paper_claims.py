"""Population (i): the paper's figures and ablations, pinned and shaped.

Each test regenerates one figure or ablation of the paper from ``src/``
at one committed size, pins its numbers as golden values and asserts the
shape the paper states.  Nothing here reads a wall clock.  Truth for a
containment check is ``math.fsum`` of the master values: the served
zero-width SUM is correctly rounded, a left-to-right ``sum()`` is not
(``docs/REPRODUCTION.md``; the general rule is ROADMAP item 3).
"""

from __future__ import annotations

import math
import random

from examples.section8.engine import QueryDriver, SimulationEngine, UpdateDriver
from examples.section8.hierarchy import build_chain
from examples.section8.prerefresh import Piggyback, PiggybackPolicy
from examples.section8.stocks import stock_cache_table, stock_master_table
from examples.section8.walks import GaussianWalk
from repro.bounds.functions import SHAPES, BoundFunction
from repro.bounds.width import AdaptiveWidthController, FixedWidthPolicy
from repro.core import knapsack
from repro.core.bound import Bound
from repro.core.executor import drive_steps, iterative_steps, table_steps
from repro.core.knapsack import (
    KnapsackItem,
    solve_exact_dp,
    solve_greedy_uniform,
    solve_ibarra_kim,
)
from repro.core.refresh import CHOOSE_MIN
from repro.core.refresh.base import candidate_costs
from repro.core.refresh.summing import SumChooseRefresh
from repro.joins.refresh import join_steps
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.cache import DataCache
from repro.replication.local import LocalRefresher
from repro.replication.messages import ObjectKey
from repro.replication.source import DataSource
from repro.replication.system import TrappSystem
from repro.simulation.clock import Clock
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.indexed_minmax import indexed_min_plan
from tests.oracle.knapsack import solve_greedy_ratio

FIG5_R = 100.0
EPSILONS = [0.1, 0.08, 0.06, 0.04, 0.02, 0.01]


def _spy_on_sparse_dp(monkeypatch) -> list[int]:
    """Record the profit dimension of every DP the solvers run.

    The DP's state space is bounded by the sum of the (scaled) integer
    profits it is handed — the O(n/ε) of the paper's analysis — so that
    sum is the deterministic stand-in for CHOOSE_REFRESH time.
    """
    dimensions: list[int] = []
    real = knapsack._sparse_dp

    def spy(weights, profits, capacity, stop_profit=None):
        dimensions.append(sum(profits))
        return real(weights, profits, capacity, stop_profit=stop_profit)

    monkeypatch.setattr(knapsack, "_sparse_dp", spy)
    return dimensions


def _knapsack_items(table) -> list[KnapsackItem]:
    """CHOOSE_REFRESH(SUM) as a knapsack: keep width ≤ R, maximize the
    refresh cost *not* paid."""
    tids = table.columns.sorted_tids()
    lo, hi = table.columns.endpoints("price")
    costs = table.columns.endpoints("cost")[0]
    return [
        KnapsackItem(int(t), float(w), float(c))
        for t, w, c in zip(tids, hi - lo, costs)
    ]


# ----------------------------------------------------------------------
# Figure 5: CHOOSE_REFRESH work and plan cost against epsilon
# ----------------------------------------------------------------------
def test_fig5_paper_algorithm(golden, monkeypatch, stock_cache):
    """The paper's algorithm as written: Ibarra–Kim, no certificate."""
    items = _knapsack_items(stock_cache)
    total_cost = sum(item.profit for item in items)
    dimensions = _spy_on_sparse_dp(monkeypatch)

    exact_cost = total_cost - solve_exact_dp(items, FIG5_R).total_profit
    (exact_dimension,) = dimensions
    dimensions.clear()
    costs = [
        total_cost - solve_ibarra_kim(items, FIG5_R, eps).total_profit
        for eps in EPSILONS
    ]
    assert len(dimensions) == len(EPSILONS), "one DP per epsilon"

    golden.check("fig5.exact.dp_dimension", exact_dimension)
    golden.check("fig5.exact.plan_cost", exact_cost)
    golden.check("fig5.paper.dp_dimension", dimensions)
    golden.check("fig5.paper.plan_cost", costs)

    # Shape 1: optimizer work grows as epsilon shrinks — O(n/ε).
    assert all(a < b for a, b in zip(dimensions, dimensions[1:]))
    assert dimensions[-1] >= 8 * dimensions[0]
    # Shape 2: the plan is already near-optimal at 0.1, never better
    # than optimal.
    assert min(costs) >= exact_cost
    assert costs[0] <= 1.15 * exact_cost


def test_fig5_served_planner(golden, monkeypatch, stock_cache):
    """The served planner's ε route: the same scheme behind PR 3's
    profit-prefix certificate, which often answers without a DP.

    ``solve_vector`` takes this route when the refresh costs are
    fractional or their integral total exceeds its exact-DP limit.  It
    does not take it on this instance: the costs are small integers, so
    the planner runs the exact DP (``fig5.exact.``).  The route is run
    here directly, over the same knapsack."""
    items = _knapsack_items(stock_cache)
    total_cost = sum(item.profit for item in items)
    dimensions = _spy_on_sparse_dp(monkeypatch)

    def sweep(budget):
        costs, tuples, dp = [], [], []
        for eps in EPSILONS:
            dimensions.clear()
            solution = solve_ibarra_kim(items, budget, eps, early_exit=True)
            # Every plan guarantees the constraint.
            assert solution.total_weight <= budget
            costs.append(total_cost - solution.total_profit)
            tuples.append(len(items) - len(solution.chosen))
            dp.append(sum(dimensions))
        return costs, tuples, dp

    costs, tuples, dp = sweep(FIG5_R)
    golden.check("fig5.served.plan_cost", costs)
    golden.check("fig5.served.tuples", tuples)
    golden.check("fig5.served.dp_dimension", dp)
    # The divergence REPRODUCTION.md states: a tighter budget moves the
    # point where the certificate stops settling the answer.
    _, _, dp_50 = sweep(50.0)
    golden.check("fig5.served.R50.dp_dimension", dp_50)


# ----------------------------------------------------------------------
# Figure 6: refresh cost against the precision constraint
# ----------------------------------------------------------------------
FIG6_EPSILON = 0.1
FIG6_R = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140]


def test_fig6_tradeoff_curve(golden, stock_cache, stock_cost):
    chooser = SumChooseRefresh(epsilon=FIG6_EPSILON)
    plans = [
        chooser.without_predicate(stock_cache, "price", budget, stock_cost)[0]
        for budget in FIG6_R
    ]
    costs = [plan.total_cost for plan in plans]
    golden.check("fig6.curve.cost", costs)
    golden.check("fig6.curve.tuples", [len(plan.tids) for plan in plans])

    # Figure 1(b): looser constraints never cost more.
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    # R = 0 is precise mode: every non-degenerate tuple refreshes.
    row_costs = candidate_costs(stock_cache, stock_cost)
    wide = stock_cache.columns.width_order("price").keys_by_tid > 0
    assert costs[0] == row_costs[wide].sum()
    # The sweep spans a real dynamic range (the paper's goes 4000 → 0).
    assert costs[-1] < 0.8 * costs[0]


def test_fig6_queries_meet_constraint(golden, stock_days, stock_cost):
    """End to end: each answer is within R and contains the true sum."""
    truth = math.fsum(day.close for day in stock_days)
    widths, costs = [], []
    for budget in (0, 40, 100, 140):
        steps = table_steps(
            stock_cache_table(stock_days), "SUM", "price", budget,
            cost=stock_cost,
        )
        answer = drive_steps(steps, LocalRefresher(stock_master_table(stock_days)))
        assert answer.width <= budget
        assert answer.bound.contains(truth)
        widths.append(answer.width)
        costs.append(answer.refresh_cost)
    golden.check("fig6.query.width", widths)
    golden.check("fig6.query.refresh_cost", costs)


# ----------------------------------------------------------------------
# Ablation: knapsack solver choice on the Figure 5 instance
# ----------------------------------------------------------------------
def test_solver_quality(golden, stock_cache):
    items = _knapsack_items(stock_cache)
    solvers = {
        "exact_dp": lambda: solve_exact_dp(items, FIG5_R),
        "ibarra_kim_0.1": lambda: solve_ibarra_kim(items, FIG5_R, 0.1),
        "ibarra_kim_0.01": lambda: solve_ibarra_kim(items, FIG5_R, 0.01),
        "greedy_ratio": lambda: solve_greedy_ratio(items, FIG5_R),
        "greedy_uniform": lambda: solve_greedy_uniform(items, FIG5_R),
    }
    kept = {}
    for name, solve in solvers.items():
        solution = solve()
        assert solution.total_weight <= FIG5_R
        kept[name] = solution.total_profit
        golden.check(f"ablation.knapsack.kept_profit.{name}", kept[name])
    optimal = kept["exact_dp"]
    assert max(kept.values()) == optimal
    # Ibarra–Kim honours (1 − ε); density greedy its 2-approximation.
    assert kept["ibarra_kim_0.1"] >= 0.9 * optimal
    assert kept["ibarra_kim_0.01"] >= 0.99 * optimal
    assert kept["greedy_ratio"] >= 0.5 * optimal


# ----------------------------------------------------------------------
# Ablation: batch versus iterative CHOOSE_REFRESH (§8.2)
# ----------------------------------------------------------------------
def test_batch_vs_iterative(golden, stock_days, stock_cost):
    for aggregate, budget in [
        # MIN at the script's R = 2 refreshed nothing on either side.
        ("MIN", 1.0), ("MAX", 2.0), ("SUM", 50.0), ("AVG", 0.5),
    ]:
        batch = drive_steps(
            table_steps(
                stock_cache_table(stock_days), aggregate, "price", budget,
                cost=stock_cost,
            ),
            LocalRefresher(stock_master_table(stock_days)),
        )
        online = drive_steps(
            iterative_steps(
                stock_cache_table(stock_days), aggregate, "price", budget,
                cost=stock_cost,
            ),
            LocalRefresher(stock_master_table(stock_days)),
        )
        assert batch.width <= budget
        assert online.width <= budget
        # The iterative run exploits actual values: it never needs more
        # refreshes than the worst-case batch plan (barring greedy-order
        # pathologies, which this workload does not exhibit).
        assert len(online.refreshed) <= len(batch.refreshed) + 2
        key = f"ablation.iterative.{aggregate}"
        golden.check(f"{key}.batch_refreshed", len(batch.refreshed))
        golden.check(f"{key}.batch_cost", batch.refresh_cost)
        golden.check(f"{key}.online_refreshed", len(online.refreshed))
        golden.check(f"{key}.online_cost", online.refresh_cost)


# ----------------------------------------------------------------------
# Ablation: multi-level caching (§8.1) and piggybacking (§8.3)
# ----------------------------------------------------------------------
def test_hierarchy_cascade_depth(golden):
    """How far an edge query cascades as the constraint tightens."""
    budgets = (400.0, 150.0, 50.0, 10.0, 0.0)
    edge_forwards, regional_forwards, source_reads = [], [], []
    for budget in budgets:
        rng = random.Random(404)
        master = Table("metrics", Schema.of(value="bounded"))
        for _ in range(40):
            master.insert({"value": rng.uniform(0, 100)})
        root, levels = build_chain(master, slacks=[1.0, 3.0])
        edge = levels[-1]
        answer = drive_steps(table_steps(edge.table, "SUM", "value", budget), edge)
        assert answer.width <= budget
        # At R = 0 the served [x, x] *is* fsum of the forty values; the
        # script's left-to-right sum() was one ulp off and read as a
        # containment failure (1731.617723853097 vs …0968).
        truth = math.fsum(master.columns.endpoints("value")[0])
        assert answer.bound.contains(truth)
        edge_forwards.append(levels[1].forwarded_refreshes)
        regional_forwards.append(levels[0].forwarded_refreshes)
        source_reads.append(root.exact_reads)
    golden.check("ablation.hierarchy.edge_forwards", edge_forwards)
    golden.check("ablation.hierarchy.regional_forwards", regional_forwards)
    golden.check("ablation.hierarchy.source_reads", source_reads)
    # Tighter budgets reach further down; the loosest never leaves the
    # edge's own slack.
    assert all(a <= b for a, b in zip(source_reads, source_reads[1:]))
    assert source_reads[0] == 0


def _piggyback_run(policy) -> tuple[DataSource, int]:
    """The source's refresh totals and how many refreshes rode along."""
    clock = Clock()
    rng = random.Random(404)
    master = Table("t", Schema.of(x="bounded"))
    walks = {}
    for tid in range(1, 21):
        value = rng.uniform(0, 100)
        master.insert({"x": value}, tid=tid)
        walks[tid] = GaussianWalk(
            value=value, volatility=0.6, rng=random.Random(rng.getrandbits(64))
        )
    source = DataSource(
        "s",
        clock=clock.now,
        default_policy_factory=lambda: FixedWidthPolicy(2.0),
    )
    piggyback = Piggyback(policy).install(source) if policy else None
    source.add_table(master)
    cache = DataCache("c", clock=clock.now)
    cache.subscribe_table(source, "t")
    query_rng = random.Random(405)
    for step in range(1, 301):
        clock.advance(1.0)
        for tid, walk in walks.items():
            source.apply_update(ObjectKey("t", tid, "x"), walk.advance())
        if step % 10 == 0:
            # A query refreshes one arbitrary tuple exactly.
            cache.refresh(cache.table("t"), [query_rng.randint(1, 20)])
    return source, piggyback.refreshes if piggyback else 0


def test_piggyback_preempts_value_initiated_refreshes(golden):
    plain, _ = _piggyback_run(None)
    piggy, ridden = _piggyback_run(PiggybackPolicy(risk_threshold=0.7, max_extra=3))
    for label, source, piggybacked in (("off", plain, 0), ("on", piggy, ridden)):
        key = f"ablation.piggyback.{label}"
        golden.check(f"{key}.value_initiated", source.value_initiated_refreshes)
        golden.check(f"{key}.query_initiated", source.query_initiated_refreshes)
        golden.check(f"{key}.piggybacked", piggybacked)
    assert ridden > 0
    assert piggy.value_initiated_refreshes <= plain.value_initiated_refreshes


# ----------------------------------------------------------------------
# Ablation: bound-function shape and width policy (Appendix A)
# ----------------------------------------------------------------------
def _walk_escapes(shape_name: str) -> tuple[int, float]:
    """One object, one 200-step walk: escapes and mean width (W = 2)."""
    shape = SHAPES[shape_name]
    walk = GaussianWalk(value=50.0, volatility=1.0, rng=random.Random(31))
    bound_function = BoundFunction(50.0, 2.0, 0.0, shape)
    escapes = 0
    widths = []
    for t in range(1, 201):
        value = walk.advance()
        bound = bound_function.at(float(t))
        widths.append(bound.width)
        if not bound.contains(value):
            escapes += 1
            bound_function = BoundFunction(value, 2.0, float(t), shape)
    return escapes, math.fsum(widths) / len(widths)


def test_bound_shape(golden):
    escapes, mean_width = {}, {}
    for shape in ("constant", "sqrt", "linear"):
        escapes[shape], mean_width[shape] = _walk_escapes(shape)
        golden.check(f"ablation.shape.{shape}.escapes", escapes[shape])
        golden.check(f"ablation.shape.{shape}.mean_width", mean_width[shape])
    # The random-walk analysis: a constant-width bound of comparable W
    # is escaped far more often; linear is safest but by far the widest;
    # sqrt sits between on escapes and stays much narrower than linear.
    assert escapes["constant"] > escapes["sqrt"]
    assert mean_width["sqrt"] < mean_width["linear"] / 3


def _policy_run(policy_factory) -> tuple[int, int]:
    """15 walking objects, one SUM query every 5 s, for 150 s."""
    rng = random.Random(31)
    master = Table("metrics", Schema.of(value="bounded", cost="exact"))
    for _ in range(15):
        master.insert({"value": rng.uniform(0, 100), "cost": 1.0})
    system = TrappSystem()
    source = system.add_source("src", default_policy_factory=policy_factory)
    source.add_table(master)
    system.add_cache("app").subscribe_table(source, "metrics")
    engine = SimulationEngine(system)
    for tid in master.tids():
        engine.add_update_driver(
            UpdateDriver(
                source_id="src",
                key=ObjectKey("metrics", tid, "value"),
                walk=GaussianWalk(
                    value=master.row(tid).number("value"),
                    volatility=0.8,
                    rng=random.Random(rng.getrandbits(64)),
                ),
                period=1.0,
            )
        )
    engine.add_query_driver(
        QueryDriver("app", "SELECT SUM(value) WITHIN 30 FROM metrics", period=5.0)
    )
    engine.run_until(150.0)
    return source.value_initiated_refreshes, source.query_initiated_refreshes


def test_width_policy(golden):
    totals = {}
    for label, factory in [
        ("fixed_0.1", lambda: FixedWidthPolicy(0.1)),
        ("fixed_50", lambda: FixedWidthPolicy(50.0)),
        ("adaptive", lambda: AdaptiveWidthController(initial_width=1.0)),
    ]:
        value_initiated, query_initiated = _policy_run(factory)
        totals[label] = value_initiated + query_initiated
        key = f"ablation.width_policy.{label}"
        golden.check(f"{key}.value_initiated", value_initiated)
        golden.check(f"{key}.query_initiated", query_initiated)
    # The adaptive controller beats the bad fixed extreme and is
    # competitive with the better one without workload knowledge.
    fixed = (totals["fixed_0.1"], totals["fixed_50"])
    assert totals["adaptive"] < max(fixed)
    assert totals["adaptive"] <= 2 * min(fixed)


# ----------------------------------------------------------------------
# Ablation: the join refresh heuristic (§7)
# ----------------------------------------------------------------------
JOIN_PREDICATE = "dst = id AND load > 30"


def _join_tables():
    """30 links × 10 nodes, cached bounds around seeded master values."""
    rng = random.Random(5)
    links_master = Table(
        "links", Schema.of(src="exact", dst="exact", latency="bounded")
    )
    nodes_master = Table("nodes", Schema.of(id="exact", load="bounded"))
    links_cache = Table("links", links_master.schema)
    nodes_cache = Table("nodes", nodes_master.schema)
    for node in range(1, 11):
        load = rng.uniform(10, 90)
        half = rng.uniform(2, 20)
        nodes_master.insert({"id": node, "load": load})
        nodes_cache.insert({"id": node, "load": Bound(load - half, load + half)})
    for _ in range(30):
        src = rng.randint(1, 10)
        dst = rng.randint(1, 10)
        latency = rng.uniform(1, 20)
        half = rng.uniform(0.5, 5)
        links_master.insert({"src": src, "dst": dst, "latency": latency})
        links_cache.insert(
            {"src": src, "dst": dst, "latency": Bound(latency - half, latency + half)}
        )
    return [links_cache, nodes_cache], (links_master, nodes_master)


class _Router:
    """Refresh each cached table from its own master."""

    def __init__(self, masters):
        self._by_name = {m.name: LocalRefresher(m) for m in masters}

    def refresh(self, table, tids):
        self._by_name[table.name].refresh(table, tids)


def _join_query(budget: float):
    caches, masters = _join_tables()
    steps = join_steps(
        caches, "SUM", ("nodes", "load"), budget, parse_predicate(JOIN_PREDICATE)
    )
    answer = drive_steps(steps, _Router(masters))
    return answer, masters


def test_join_tradeoff_curve(golden):
    budgets = (200.0, 100.0, 50.0, 20.0, 5.0, 0.0)
    answers = [_join_query(budget)[0] for budget in budgets]
    assert all(a.width <= budget for a, budget in zip(answers, budgets))
    costs = [answer.refresh_cost for answer in answers]
    golden.check("ablation.join.curve.cost", costs)
    golden.check("ablation.join.curve.refreshed", [len(a.refreshed) for a in answers])
    golden.check("ablation.join.curve.width", [a.width for a in answers])
    # The Figure 1(b) shape: tighter budgets never get cheaper.
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_join_answer_contains_truth(golden):
    answer, (links_master, nodes_master) = _join_query(10.0)
    load_of = {
        node["id"]: node.number("load") for node in nodes_master.rows()
    }
    # fsum, not a running sum(): the refreshed join answer is zero-width
    # and correctly rounded (1593.2064287625537; sum() gives …554).
    truth = math.fsum(
        load_of[link["dst"]]
        for link in links_master.rows()
        if load_of[link["dst"]] > 30
    )
    assert answer.bound.contains(truth)
    golden.check("ablation.join.R10.lo", answer.bound.lo)
    golden.check("ablation.join.R10.hi", answer.bound.hi)


# ----------------------------------------------------------------------
# Ablation: the endpoint-indexed MIN plan (§5.1) is the scan's plan
# ----------------------------------------------------------------------
def test_indexed_min_matches_scan(golden):
    rng = random.Random(11)
    table = Table("t", Schema.of(x="bounded", cost="exact"))
    for _ in range(2000):
        lo = rng.uniform(0, 1000)
        table.insert(
            {"x": Bound(lo, lo + rng.uniform(0, 50)), "cost": float(rng.randint(1, 10))}
        )
    cost = ColumnCostModel("cost")
    # R = 1: at the script's R = 10 both plans were empty.
    scan_plan, _ = CHOOSE_MIN.without_predicate(table, "x", 1.0, cost)
    index_plan = indexed_min_plan(table, "x", 1.0, cost)
    assert scan_plan.tids == index_plan.tids != frozenset()
    assert scan_plan.total_cost == index_plan.total_cost
    golden.check("ablation.indexed_min.tuples", len(index_plan.tids))
    golden.check("ablation.indexed_min.plan_cost", index_plan.total_cost)
