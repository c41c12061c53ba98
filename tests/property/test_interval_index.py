"""Property: the index-backed classifier is bit-identical to the dense one.

ISSUE 10's correctness bar: for random tables (exact values, wide bounds,
unrefreshed ``(-inf, inf)`` tuples), random predicates (scaled/offset
terms with either sign, equality, And/Or/Not nesting), and random
write/insert/delete interleavings that dirty the endpoint indexes
mid-stream, ``classify_report`` must return exactly the masks the dense
evaluator produces — not merely equivalent classifications, the same
bits.  When the index route engages, its sorted candidate positions must
match the masks, and harvesting from those positions must emit the same
candidate vectors as harvesting from the masks.  The same sorted orders
answer §5.1's sublinear MIN/MAX CHOOSE_REFRESH
(``without_predicate_indexed``), which must pick the plan the dense
column sweep picks.

The mutation interleavings matter: they exercise every branch of the
``_sorted_order`` lifecycle (epoch reuse, re-stamp, splice repair, full
rebuild) between classifications, which is where a stale or misrepaired
index would silently diverge.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bound import Bound
from repro.core.refresh.minmax import CHOOSE_MAX, CHOOSE_MIN
from repro.predicates.ast import And, ColumnRef, Comparison, Literal, Not, Or
from repro.predicates.batch import classify_dense, classify_report
from repro.storage.columnar import harvest_candidates
from repro.storage.schema import Schema
from repro.storage.table import Table

SCHEMA = Schema.of(x="bounded", y="bounded")

values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
widths = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)
scales = st.sampled_from([1.0, 2.0, 0.5, -1.0, -2.0, 0.0])
offsets = st.sampled_from([0.0, 1.0, -3.0])


@st.composite
def cell(draw):
    """Exact value, exact bound, wide bound, or unrefreshed tuple."""
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 3:
        return Bound(float("-inf"), float("inf"))
    lo = draw(values)
    if kind == 0:
        return lo
    if kind == 1:
        return Bound.exact(lo)
    return Bound(lo, lo + draw(widths))


@st.composite
def tables(draw, min_rows=0, max_rows=10):
    table = Table("t", SCHEMA)
    for _ in range(draw(st.integers(min_value=min_rows, max_value=max_rows))):
        table.insert({"x": draw(cell()), "y": draw(cell())})
    return table


@st.composite
def comparisons(draw):
    column = draw(st.sampled_from(["x", "y"]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    ref = ColumnRef(column, scale=draw(scales), offset=draw(offsets))
    literal = Literal(draw(values))
    if draw(st.booleans()):
        return Comparison(literal, op, ref)  # normalization flips it back
    return Comparison(ref, op, literal)


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(comparisons())
    combinator = draw(st.sampled_from(["and", "or", "not"]))
    if combinator == "not":
        return Not(draw(predicates(depth=depth - 1)))
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    return And(left, right) if combinator == "and" else Or(left, right)


# (op, row-slot, payload): the slot is taken modulo the live row count so
# shrunk examples stay valid as inserts/deletes shift the tid space.
mutations = st.lists(
    st.tuples(
        st.sampled_from(["widen", "collapse", "insert", "delete"]),
        st.integers(min_value=0, max_value=99),
        cell(),
    ),
    min_size=0,
    max_size=6,
)


def apply_mutation(table, op, slot, payload):
    live = [row.tid for row in table.rows()]
    if op == "insert":
        table.insert({"x": payload, "y": payload})
        return
    if not live:
        return
    tid = live[slot % len(live)]
    if op == "delete":
        table.delete(tid)
    elif op == "collapse":
        # A refresh: the bound collapses to an exact master value.
        exact = payload.lo if isinstance(payload, Bound) else payload
        if np.isfinite(exact):
            table.update_value(tid, "x", float(exact))
    else:  # widen — a master write propagated as a new bound
        table.update_value(tid, "x", payload)


def assert_routes_identical(table, predicate):
    report = classify_report(table.columns, predicate)
    dense_c, dense_p = classify_dense(table.columns, predicate)
    assert np.array_equal(report.certain, dense_c)
    assert np.array_equal(report.possible, dense_p)
    positions = report.positions
    assert np.array_equal(
        report.certain_positions, np.flatnonzero(dense_c)
    )
    assert np.array_equal(
        report.maybe_positions, np.flatnonzero(dense_p & ~dense_c)
    )
    costs = np.ones(len(positions[0]) + len(positions[1]))
    via_positions = harvest_candidates(
        table.columns, "x", costs, positions=positions
    )
    via_masks = harvest_candidates(
        table.columns,
        "x",
        costs,
        positions=(np.flatnonzero(dense_c), np.flatnonzero(dense_p & ~dense_c)),
    )
    for field in ("tids", "widths", "costs", "order"):
        assert np.array_equal(
            getattr(via_positions, field), getattr(via_masks, field)
        ), field


def assert_indexed_plans_match_dense(table, budget):
    for chooser in (CHOOSE_MIN, CHOOSE_MAX):
        dense, _ = chooser.without_predicate(table, "x", budget)
        assert chooser.without_predicate_indexed(table, "x", budget) == dense


class TestIndexRouteBitIdentity:
    @given(table=tables(), predicate=predicates())
    @settings(max_examples=150, deadline=None)
    def test_static_tables(self, table, predicate):
        assert_routes_identical(table, predicate)

    @given(
        table=tables(min_rows=1), predicate=predicates(), steps=mutations,
        budget=widths,
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_mutations(self, table, predicate, steps, budget):
        # Classify first so the endpoint orders exist and every later
        # mutation dirties a *live* index instead of forcing a cold build.
        assert_routes_identical(table, predicate)
        assert_indexed_plans_match_dense(table, budget)
        for op, slot, payload in steps:
            apply_mutation(table, op, slot, payload)
            assert_routes_identical(table, predicate)
            assert_indexed_plans_match_dense(table, budget)
