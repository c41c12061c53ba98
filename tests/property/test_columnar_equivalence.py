"""Property: the executor is equivalent to the row-at-a-time oracle.

Hypothesis generates tables (bounded, exact, and text columns, mixed
exact/wide bounds), predicates over them — over bounded columns, over
exact and text columns only, or none — aggregates and cost functions;
:func:`~repro.core.executor.table_steps`, which reads only the column
arrays, must produce the same :class:`BoundedAnswer` as
``tests/oracle/row_executor.py``, which loops over rows.
MIN/MAX/COUNT/MEDIAN answers are compared exactly (same selections over
the same sets); SUM/AVG tolerate the array-summation reordering at one
part in 10^9.

Classification itself (the T+/T?/T− partition and the Appendix D
refinement) must agree *exactly* between the two, so those are asserted
tuple-for-tuple.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.core.refresh.base import uniform_cost
from repro.errors import ConstraintUnsatisfiableError, OptimizerError
from repro.predicates.ast import And, ColumnRef, Comparison, Literal, Not, Or
from repro.predicates.batch import restrict_endpoints
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import RowQueryExecutor, classify_columnar
from tests.oracle.row_protocol import classify, restrict_bound
from tests.protocol import row_cost

SCHEMA = Schema.of(x="bounded", y="bounded", cost="exact", tag="text")

values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
widths = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
tags = st.sampled_from(["a", "b", "c"])


@st.composite
def cell(draw):
    """A bounded-column value: exact number, exact bound, or wide bound."""
    lo = draw(values)
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return lo
    if kind == 1:
        return Bound.exact(lo)
    return Bound(lo, lo + draw(widths))


@st.composite
def tables(draw, min_rows=0, max_rows=12):
    cached = Table("t", SCHEMA)
    master = Table("t", SCHEMA)
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    for _ in range(n):
        x = draw(cell())
        y = draw(cell())
        cost = draw(st.floats(min_value=1.0, max_value=9.0, allow_nan=False))
        tag = draw(tags)
        cached.insert({"x": x, "y": y, "cost": cost, "tag": tag})
        x_b = x if isinstance(x, Bound) else Bound.exact(x)
        y_b = y if isinstance(y, Bound) else Bound.exact(y)
        master.insert(
            {
                "x": draw(st.floats(min_value=x_b.lo, max_value=x_b.hi)),
                "y": draw(st.floats(min_value=y_b.lo, max_value=y_b.hi)),
                "cost": cost,
                "tag": tag,
            }
        )
    return cached, master


@st.composite
def comparisons(draw, columns=("x", "y", "cost", "tag")):
    column = draw(st.sampled_from(columns))
    if column == "tag":
        return Comparison(
            ColumnRef("tag"), draw(st.sampled_from(["=", "!="])), Literal(draw(tags))
        )
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    if draw(st.booleans()) and column != "cost":
        other = "y" if column == "x" else "x"
        return Comparison(ColumnRef(column), op, ColumnRef(other))
    return Comparison(ColumnRef(column), op, Literal(draw(values)))


@st.composite
def predicates(draw, depth=2, columns=("x", "y", "cost", "tag")):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(comparisons(columns))
    combinator = draw(st.sampled_from(["and", "or", "not"]))
    if combinator == "not":
        return Not(draw(predicates(depth - 1, columns)))
    left = draw(predicates(depth - 1, columns))
    right = draw(predicates(depth - 1, columns))
    return And(left, right) if combinator == "and" else Or(left, right)


#: No predicate, any predicate, or one over exact and text columns only
#: (the §6 route with an empty T?).
query_predicates = st.one_of(
    st.none(), predicates(), predicates(columns=("cost", "tag"))
)

AGGREGATES = ["MIN", "MAX", "SUM", "COUNT", "AVG", "MEDIAN"]


def _by_tid(row):
    """A bare cost callable (integral, so SUM/AVG plan by exact DP)."""
    return float(row.tid % 3 + 1)


#: What the served executor prices with; the row oracle gets
#: ``row_cost`` of it.
COSTS = {
    "uniform": uniform_cost,
    # Arbitrary floats: SUM and AVG plan in the ε-approximation branch.
    "column": ColumnCostModel("cost"),
    "opaque": _by_tid,
    # A cost column that holds wide bounds: pricing a candidate whose y
    # is wide raises (the model says so; the row lambda's read fails).
    "wide_tag": ColumnCostModel("y"),
}


def _one_row_tables(y: float):
    """A (cached, master) pair holding one tuple with a wide ``x``."""
    cached, master = Table("t", SCHEMA), Table("t", SCHEMA)
    cached.insert({"x": Bound(0.0, 1.0), "y": y, "cost": 1.0, "tag": "a"})
    master.insert({"x": 0.5, "y": y, "cost": 1.0, "tag": "a"})
    return cached, master


def assert_bounds_close(a: Bound, b: Bound, aggregate: str, context: str):
    if aggregate in ("MIN", "MAX", "COUNT", "MEDIAN"):
        assert a == b, f"{context}: {a} != {b}"
    else:
        assert a.lo == pytest.approx(b.lo, rel=1e-9, abs=1e-9), context
        assert a.hi == pytest.approx(b.hi, rel=1e-9, abs=1e-9), context


class TestClassificationEquivalence:
    @given(data=tables(), predicate=predicates())
    @settings(max_examples=150, deadline=None)
    def test_partition_identical(self, data, predicate):
        cached, _ = data
        reference = classify(cached.rows(), predicate)
        columnar = classify_columnar(cached, predicate)
        for ref_rows, col_rows in (
            (reference.plus, columnar.plus),
            (reference.maybe, columnar.maybe),
            (reference.minus, columnar.minus),
        ):
            assert [r.tid for r in ref_rows] == [r.tid for r in col_rows]

    @given(
        bounds=st.lists(
            st.tuples(values, widths).map(lambda t: Bound(t[0], t[0] + t[1])),
            min_size=1,
            max_size=10,
        ),
        predicate=predicates(),
    )
    @settings(max_examples=150, deadline=None)
    def test_refinement_identical(self, bounds, predicate):
        lo = np.array([b.lo for b in bounds])
        hi = np.array([b.hi for b in bounds])
        new_lo, new_hi = restrict_endpoints(lo, hi, predicate, "x")
        for i, b in enumerate(bounds):
            expected = restrict_bound(b, predicate, "x")
            assert (new_lo[i], new_hi[i]) == (expected.lo, expected.hi)


class TestExecutorEquivalence:
    @given(
        data=tables(),
        predicate=query_predicates,
        aggregate=st.sampled_from(AGGREGATES),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_answers_match(self, data, predicate, aggregate):
        """No-refresh regime: identical initial answers from both."""
        cached, _ = data
        column = None if aggregate == "COUNT" else "x"
        steps = table_steps(cached, aggregate, column, math.inf, predicate)
        a = drive_steps(steps, NullRefreshProvider())
        b = RowQueryExecutor().execute(cached, aggregate, column, math.inf, predicate)
        assert_bounds_close(a.bound, b.bound, aggregate, f"{aggregate}, {predicate}")
        assert a.refreshed == b.refreshed == frozenset()

    @given(
        data=tables(min_rows=1),
        predicate=query_predicates,
        aggregate=st.sampled_from(AGGREGATES),
        budget=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        cost_name=st.sampled_from(sorted(COSTS)),
    )
    # PR 15's find: the uniform-cost walk answered refresh_cost = -1.0
    # where the oracle raised.  Both raise OptimizerError now.
    @example(
        data=_one_row_tables(y=-1.0),
        predicate=None,
        aggregate="SUM",
        budget=0.0,
        cost_name="wide_tag",
    )
    @settings(max_examples=200, deadline=None)
    def test_full_pipeline_matches(
        self, data, predicate, aggregate, budget, cost_name
    ):
        """Refresh regime: same refresh plans and guaranteed final answers."""
        cached, master = data
        column = None if aggregate == "COUNT" else "x"
        cost = COSTS[cost_name]

        def run(steps_of, table, cost):
            steps = steps_of(table, aggregate, column, budget, predicate, cost)
            try:
                return drive_steps(steps, LocalRefresher(master))
            except ConstraintUnsatisfiableError:
                # e.g. an unbounded AVG whose predicate no tuple can ever
                # satisfy; both must agree that it is unsatisfiable.
                return None
            except (TypeError, OptimizerError) as error:
                # The cost callable read a wide bound, or a negative y.
                assert cost_name == "wide_tag", error
                return type(error)

        a = run(table_steps, cached.copy(), cost)
        b = run(RowQueryExecutor().execute_steps, cached.copy(), row_cost(cost))
        if a is OptimizerError and isinstance(b, BoundedAnswer):
            # A negative cost is rejected wherever candidates are priced;
            # the row protocol checked it in KnapsackItem only, so its
            # forced-set choosers (MIN, MAX, COUNT, MEDIAN) add it up.
            assert aggregate not in ("SUM", "AVG")
            assert any(row.bound("y").lo < 0 for row in cached.rows())
            return
        if not isinstance(a, BoundedAnswer) or not isinstance(b, BoundedAnswer):
            # The same verdict — except that a y column holding both a
            # wide bound and a negative number has two faults, and the
            # oracle reports whichever row comes first.
            assert a is b or {a, b} == {TypeError, OptimizerError}
            return
        assert_bounds_close(
            a.initial_bound, b.initial_bound, aggregate, f"initial {aggregate}"
        )
        assert a.bound.width <= budget * (1 + 1e-6)
        assert b.bound.width <= budget * (1 + 1e-6)
        if aggregate in ("SUM", "AVG") and cost_name != "uniform":
            # Knapsack plans: equal-cost when both solve exactly
            # (integral costs), certificate-equal in the ε branch
            # (tests/property/test_planner_equivalence.py).
            if cost_name == "opaque":
                assert a.refresh_cost == b.refresh_cost
            return
        # Forced or greedy plans: the very same tuples.
        assert a.refreshed == b.refreshed
        assert a.refresh_cost == pytest.approx(b.refresh_cost, rel=1e-12)
        assert_bounds_close(a.bound, b.bound, aggregate, f"final {aggregate}")

    def test_avg_with_no_certain_tuple_refreshes_all_of_t_maybe(self):
        """Appendix F's degenerate ``L'_C = 0`` instance: no tuple is sure
        to satisfy the predicate, so both refresh every T? tuple."""
        cached, master = Table("t", SCHEMA), Table("t", SCHEMA)
        for lo, hi, value in [(0, 10, 7), (3, 8, 4), (-5, 2, 1), (20, 30, 25)]:
            row = {"y": 0.0, "cost": float(hi), "tag": "a"}
            cached.insert({"x": Bound(lo, hi), **row})
            master.insert({"x": float(value), **row})
        predicate = parse_predicate("x > 5 AND x < 9")
        cost = ColumnCostModel("cost")
        steps = table_steps(cached.copy(), "AVG", "x", 0.5, predicate, cost)
        a = drive_steps(steps, LocalRefresher(master))
        b = RowQueryExecutor(refresher=LocalRefresher(master)).execute(
            cached.copy(), "AVG", "x", 0.5, predicate, row_cost(cost)
        )
        assert a.refreshed == b.refreshed == frozenset({1, 2})
        assert a.refresh_cost == b.refresh_cost == 18.0
        assert a.bound == b.bound == Bound.exact(7.0)
