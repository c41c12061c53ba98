"""Property: planning over column arrays is as good as planning over rows.

The chooser entry points the executor calls (candidate harvesting +
``solve_vector``) must agree with the row-taking ones of
``tests/oracle/row_protocol.py`` (per-row ``KnapsackItem`` construction +
object solvers), which the oracle ``tests/oracle/row_executor.py`` plans
with:

* **exact branches** (uniform costs, integral costs under ``force_exact``)
  — equal-cost plans, including the zero-width, over-capacity, and
  uniform-cost edge cases the solvers special-case;
* **approximation branch** (non-integral costs) — every plan carries the
  (1 − ε) kept-profit certificate against the brute-force oracle, whether
  the costs came from a cost model or from a bare callable evaluated into
  a cost array (plan identity is not promised there);
* **end to end** — the executor and the oracle refresh equal-cost tuple
  sets and both answers satisfy the constraint.

Coordinates live on a dyadic grid (multiples of 1/64) so every width sum
compares exactly in binary floating point — the two pipelines accumulate
in different orders, and the tests certify combinatorics, not ulps.
"""

import math

from hypothesis import given, settings, strategies as st

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.bound import Bound
from repro.core.executor import QueryExecutor
from repro.core.knapsack import KnapsackItem, solve_brute_force
from repro.core.refresh.base import uniform_cost
from repro.core.refresh.summing import SumChooseRefresh
from repro.errors import ConstraintUnsatisfiableError
from repro.predicates.ast import ColumnRef, Comparison, Literal
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import RowQueryExecutor
from tests.oracle.row_protocol import RowSumChooseRefresh
from tests.protocol import row_cost

grid = st.integers(min_value=-320, max_value=320).map(lambda k: k / 64.0)
# Include exact zeros and occasional huge widths so the free/oversize item
# routing is exercised, not just the knapsack interior.
grid_widths = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=320).map(lambda k: k / 64.0),
    st.integers(min_value=1280, max_value=2560).map(lambda k: k / 64.0),
)
budgets = st.integers(min_value=0, max_value=960).map(lambda k: k / 64.0)
int_costs = st.integers(min_value=1, max_value=9)


@st.composite
def planner_tables(draw):
    """A (cache, master) pair over one bounded column plus a cost column."""
    n = draw(st.integers(min_value=1, max_value=8))
    schema = Schema.of(x="bounded", c="exact")
    cache, master = Table("t", schema), Table("t", schema)
    for _ in range(n):
        lo = draw(grid)
        width = draw(grid_widths)
        cost = float(draw(int_costs))
        cache.insert({"x": Bound(lo, lo + width), "c": cost})
        master.insert({"x": lo + width / 2, "c": cost})
    return cache, master


def _refresh_cost_oracle(cache, budget, costs):
    """Cheapest refresh set cost for SUM via subset enumeration."""
    import itertools

    rows = cache.rows()

    def width_after(tids):
        return sum(r.bound("x").width for r in rows if r.tid not in tids)

    best = None
    for k in range(len(rows) + 1):
        for combo in itertools.combinations([r.tid for r in rows], k):
            if width_after(set(combo)) <= budget:
                cost = sum(costs[t] for t in combo)
                if best is None or cost < best:
                    best = cost
    return best


@settings(max_examples=50, deadline=None)
@given(planner_tables(), budgets)
def test_uniform_cost_plans_equal(tables, budget):
    cache, master = tables
    chooser = SumChooseRefresh()
    row_chooser = RowSumChooseRefresh()
    row_plan = row_chooser.without_predicate(cache.rows(), "x", budget)
    vector_plan, _ = chooser.without_predicate(
        cache, "x", budget, uniform_cost
    )
    assert vector_plan.total_cost == row_plan.total_cost
    # Uniform greedy is optimal (§5.2): both must match the oracle too.
    oracle = _refresh_cost_oracle(cache, budget, {r.tid: 1.0 for r in cache.rows()})
    assert oracle is not None
    assert vector_plan.total_cost == oracle


@settings(max_examples=50, deadline=None)
@given(planner_tables(), budgets)
def test_exact_column_cost_plans_equal(tables, budget):
    cache, master = tables
    chooser = SumChooseRefresh(force_exact=True)
    row_chooser = RowSumChooseRefresh(force_exact=True)
    cost = ColumnCostModel("c")
    row_plan = row_chooser.without_predicate(cache.rows(), "x", budget, row_cost(cost))
    vector_plan, _ = chooser.without_predicate(cache, "x", budget, cost)
    assert vector_plan.total_cost == row_plan.total_cost
    oracle = _refresh_cost_oracle(
        cache, budget, {r.tid: r.number("c") for r in cache.rows()}
    )
    assert oracle is not None
    assert vector_plan.total_cost == oracle


@settings(max_examples=50, deadline=None)
@given(planner_tables(), budgets)
def test_approx_plans_share_certificate(tables, budget):
    """ε branch: every planner input keeps ≥ (1 − ε) of the optimum."""
    epsilon = 0.1
    cache, master = tables
    rows = cache.rows()
    # Fractional costs force the approximation path everywhere.
    costs = {r.tid: r.number("c") + 0.5 for r in rows}

    def opaque(row):
        return costs[row.tid]

    cost = ColumnCostModel("c2")
    cache2 = Table("t", Schema.of(x="bounded", c="exact", c2="exact"))
    for r in rows:
        cache2.insert(
            {"x": r.bound("x"), "c": r.number("c"), "c2": costs[r.tid]}, tid=r.tid
        )

    chooser = SumChooseRefresh(epsilon=epsilon)
    row_chooser = RowSumChooseRefresh(epsilon=epsilon)
    row_plan = row_chooser.without_predicate(cache2.rows(), "x", budget, opaque)
    vector_plan, _ = chooser.without_predicate(cache2, "x", budget, cost)
    opaque_plan, _ = chooser.without_predicate(cache2, "x", budget, opaque)

    items = [
        KnapsackItem(r.tid, r.bound("x").width, costs[r.tid]) for r in cache2.rows()
    ]
    optimum = solve_brute_force(items, budget)
    total = sum(costs.values())
    for plan in (row_plan, vector_plan, opaque_plan):
        kept = total - plan.total_cost
        assert kept >= (1 - epsilon) * optimum.total_profit - 1e-6
        # Feasibility: the kept (unrefreshed) widths fit the budget.
        kept_width = sum(
            r.bound("x").width for r in cache2.rows() if r.tid not in plan.tids
        )
        assert kept_width <= budget + 1e-9


def _by_parity(row):
    """A bare cost callable (integral: exact DP under force_exact)."""
    return 1.0 + row.tid % 2


def _run_both(cache, master, *query, cost=uniform_cost):
    """``(executor answer, oracle answer)``; ``None`` for unsatisfiable."""
    answers = []
    for executor_type, cost in (
        (QueryExecutor, cost),
        (RowQueryExecutor, row_cost(cost)),
    ):
        executor = executor_type(
            refresher=LocalRefresher(master.copy()), force_exact=True
        )
        try:
            answers.append(executor.execute(cache.copy(), *query, cost))
        except ConstraintUnsatisfiableError:
            # Legitimately unsatisfiable (e.g. an empty AVG answer set
            # against a zero budget yields [-inf, inf]); both must reach
            # the same verdict.
            answers.append(None)
    return answers


@settings(max_examples=80, deadline=None)
@given(
    planner_tables(),
    budgets,
    st.sampled_from(["SUM", "MIN", "MAX", "AVG", "COUNT", "MEDIAN"]),
    st.sampled_from(["uniform", "column", "opaque"]),
    st.one_of(
        st.none(),
        st.tuples(st.just("x"), st.integers(min_value=-192, max_value=192)),
        # A predicate over the exact column only: §6 with an empty T?.
        st.tuples(st.just("c"), st.integers(min_value=0, max_value=640)),
    ),
)
def test_executor_end_to_end_equivalence(tables, budget, aggregate, cost_kind, where):
    """Executor vs oracle: equal-cost refreshes, both answers feasible."""
    cache, master = tables
    predicate = (
        None
        if where is None
        else Comparison(ColumnRef(where[0]), ">", Literal(where[1] / 64.0))
    )
    column = None if aggregate == "COUNT" else "x"
    if aggregate == "COUNT":
        constraint = max(0.0, float(len(cache)) / 2)
    elif aggregate == "AVG":
        constraint = budget / max(1, len(cache))
    else:
        constraint = budget
    cost = {
        "uniform": uniform_cost,
        "column": ColumnCostModel("c"),
        "opaque": _by_parity,
    }[cost_kind]

    fast, reference = _run_both(
        cache, master, aggregate, column, constraint, predicate, cost=cost
    )
    if fast is None or reference is None:
        assert fast is None and reference is None
        return
    assert fast.refresh_cost == reference.refresh_cost
    assert math.isclose(fast.bound.width, reference.bound.width, abs_tol=1e-9) or (
        fast.bound.width <= constraint + 1e-9
        and reference.bound.width <= constraint + 1e-9
    )


@settings(max_examples=60, deadline=None)
@given(
    planner_tables(),
    budgets,
    st.integers(min_value=-192, max_value=192),
)
def test_avg_predicate_vector_plan_identical(tables, budget, threshold):
    """Appendix F AVG knapsack: array form ≡ row form, tuple-for-tuple.

    With a predicate over the aggregation column, AVG plans through the
    slope-augmented knapsack; the harvested vectors must refresh the
    *identical tuple set* the per-row items refresh (uniform cost, exact
    DP), so final bounds match bit-for-bit.
    """
    cache, master = tables
    predicate = Comparison(ColumnRef("x"), ">", Literal(threshold / 64.0))
    constraint = budget / max(1, len(cache))

    fast, reference = _run_both(cache, master, "AVG", "x", constraint, predicate)
    if fast is None or reference is None:
        assert fast is None and reference is None
        return
    assert fast.refreshed == reference.refreshed
    assert fast.refresh_cost == reference.refresh_cost
    assert fast.bound.lo == reference.bound.lo
    assert fast.bound.hi == reference.bound.hi


def test_uniform_plans_identical_on_decimal_data():
    """Ordinary one-decimal widths (not the dyadic grid): the array
    uniform walk reuses the row greedy's arithmetic, so plans must be
    bit-identical, not merely equal-cost."""
    import random

    rng = random.Random(1)
    chooser = SumChooseRefresh()
    row_chooser = RowSumChooseRefresh()
    for _ in range(300):
        n = rng.randint(1, 8)
        table = Table("t", Schema.of(x="bounded"))
        for _ in range(n):
            table.insert({"x": Bound(0.0, round(rng.uniform(0, 1), 1))})
        budget = round(rng.uniform(0, n * 0.6), 1) * 0.9999999999999999
        row_plan = row_chooser.without_predicate(table.rows(), "x", budget)
        vector_plan, _ = chooser.without_predicate(
            table, "x", budget, uniform_cost
        )
        assert vector_plan.tids == row_plan.tids


def test_force_exact_rejects_fractional_costs_on_both_paths():
    """solve_vector must mirror solve_exact_dp's integral-profit contract
    instead of silently rounding fractional costs."""
    import pytest

    from repro.errors import OptimizerError

    table = Table("t", Schema.of(x="bounded", c="exact"))
    table.insert({"x": Bound(0, 1), "c": 0.4})
    table.insert({"x": Bound(0, 1), "c": 0.45})
    chooser = SumChooseRefresh(force_exact=True)
    row_chooser = RowSumChooseRefresh(force_exact=True)
    cost = ColumnCostModel("c")
    with pytest.raises(OptimizerError):
        row_chooser.without_predicate(table.rows(), "x", 1.0, row_cost(cost))
    with pytest.raises(OptimizerError):
        chooser.without_predicate(table, "x", 1.0, cost)
