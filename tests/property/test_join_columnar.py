"""Property: the array join and TOP-n kernels agree with the row oracles.

``repro.joins`` classifies joined tuples and scores base tuples over
``ColumnStore`` arrays; ``repro.extensions.topn`` decides membership with
two sorts.  The row-at-a-time definitions they replaced live in
``tests/oracle/``.  Hypothesis generates two-table instances whose
column names collide on purpose (``k``, ``v``, ``c`` and ``tag`` exist in
both), join conditions with and without an exact equality key, bounded
comparisons, scaled terms and text, and refreshes landing between the
greedy rounds; both sides must name the same joined tuples with the
same verdicts in the same order, refresh the same base tuple every
round, and return the same answer.

Values sit on a quarter grid, so every sum is exact in float64 and a
round can never flip on summation order; the bounds are still compared
with the tolerance ``test_columnar_equivalence`` uses.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bound import Bound
from repro.core.refresh.base import RefreshPlan, uniform_cost
import repro.extensions.median_spec  # noqa: F401  (registers MEDIAN)
from repro.errors import ConstraintUnsatisfiableError
from repro.extensions.topn import bounded_top_n, top_n_steps
from repro.joins.classify import join_pairs
from repro.joins.refresh import JoinRefreshHeuristic
from repro.predicates.ast import And, ColumnRef, Comparison, Literal, Not, Or
from repro.replication import ColumnCostModel
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle import row_topn
from tests.oracle.row_eval import Trilean
from tests.oracle.row_join import RowJoinRefreshHeuristic, join_rows
from tests.property.test_columnar_equivalence import assert_bounds_close
from tests.protocol import row_cost, table_of

SCHEMA_A = Schema.of(k="exact", c="exact", x="bounded", v="bounded", tag="text")
SCHEMA_B = Schema.of(
    id="exact", k="exact", c="exact", y="bounded", v="bounded", tag="text"
)

quarters = st.integers(min_value=-32, max_value=32).map(lambda q: q / 4.0)
keys = st.integers(min_value=0, max_value=2)
costs = st.integers(min_value=1, max_value=3).map(float)
tags = st.sampled_from(["a", "b", "c"])


@st.composite
def cells(draw):
    """A bounded cell and a master value inside it, both on the grid."""
    lo = draw(quarters)
    steps = draw(st.integers(min_value=0, max_value=12))
    if steps == 0:
        return draw(st.sampled_from([lo, Bound.exact(lo)])), lo
    master = lo + draw(st.integers(min_value=0, max_value=steps)) / 4.0
    return Bound(lo, lo + steps / 4.0), master


@st.composite
def instances(draw, max_rows=6):
    """Cached ``(a, b)`` and their masters."""
    cached = Table("a", SCHEMA_A), Table("b", SCHEMA_B)
    masters = Table("a", SCHEMA_A), Table("b", SCHEMA_B)
    for side, bounded in enumerate((("x", "v"), ("y", "v"))):
        for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
            exact = {"k": draw(keys), "c": draw(costs), "tag": draw(tags)}
            if side == 1:
                exact["id"] = draw(keys)
            drawn = {name: draw(cells()) for name in bounded}
            cached[side].insert({**exact, **{n: d[0] for n, d in drawn.items()}})
            masters[side].insert({**exact, **{n: d[1] for n, d in drawn.items()}})
    return cached, masters


def numeric_terms():
    columns = st.sampled_from(
        [
            ColumnRef("x"),
            ColumnRef("y"),
            ColumnRef("v"),  # both tables carry it
            ColumnRef("v", "a"),
            ColumnRef("v", "b"),
            ColumnRef("k", "a"),
            ColumnRef("c"),
        ]
    )
    scaled = st.builds(
        lambda ref, scale, offset: ColumnRef(ref.column, ref.table, scale, offset),
        columns,
        st.sampled_from([2.0, 0.5, -1.0, 0.0]),
        quarters,
    )
    return st.one_of(columns, scaled, quarters.map(Literal))


KEY_EQUALITIES = [
    Comparison(ColumnRef("k", "a"), "=", ColumnRef("id", "b")),
    Comparison(ColumnRef("id", "b"), "=", ColumnRef("k", "a")),
    Comparison(ColumnRef("k"), "=", ColumnRef("id")),
    Comparison(ColumnRef("k", "a"), "=", ColumnRef("k", "b")),
    Comparison(ColumnRef("tag", "a"), "=", ColumnRef("tag", "b")),
    # Scaled: an equality, but not a key.
    Comparison(ColumnRef("k", "a", 2.0), "=", ColumnRef("id", "b")),
]


@st.composite
def leaves(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(st.sampled_from(KEY_EQUALITIES))
    if kind == 1:
        return Comparison(
            ColumnRef("tag", draw(st.sampled_from([None, "a", "b"]))),
            draw(st.sampled_from(["=", "!="])),
            Literal(draw(tags)),
        )
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    return Comparison(draw(numeric_terms()), op, draw(numeric_terms()))


@st.composite
def conditions(draw, depth=2):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(leaves())
    combinator = draw(st.sampled_from(["and", "and", "or", "not"]))
    if combinator == "not":
        return Not(draw(conditions(depth=depth - 1)))
    left = draw(conditions(depth=depth - 1))
    right = draw(conditions(depth=depth - 1))
    return And(left, right) if combinator == "and" else Or(left, right)


def refresh_from(masters, tables, name, tids):
    """Collapse base tuples of table ``name`` onto their master values."""
    at = 0 if name == "a" else 1
    for tid in tids:
        for column in tables[at].schema.bounded_columns:
            tables[at].update_value(
                tid, column.name, masters[at].row(tid).number(column.name)
            )


class TestJoinedPairs:
    @given(data=instances(), condition=st.one_of(st.none(), conditions()))
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_same_verdicts_same_order(self, data, condition):
        tables, _ = data
        expected = [
            (jt.base["a"], jt.base["b"], jt.verdict is Trilean.MAYBE)
            for jt in join_rows(tables, condition)
        ]
        joined, maybe = join_pairs(tables, condition)
        got = list(
            zip(
                joined.base_tids(0).tolist(),
                joined.base_tids(1).tolist(),
                maybe.tolist(),
            )
        )
        assert got == expected

    def test_three_tables_cross_in_product_order(self):
        tables = []
        for name, n in (("p", 2), ("q", 3), ("r", 2)):
            table = Table(name, Schema.of(**{f"{name}_v": "bounded"}))
            for i in range(n):
                table.insert({f"{name}_v": Bound(i, i + 1)})
            tables.append(table)
        condition = Comparison(ColumnRef("p_v"), "<=", ColumnRef("r_v"))
        expected = [
            tuple(jt.base[t.name] for t in tables) for jt in join_rows(tables, condition)
        ]
        joined, _ = join_pairs(tables, condition)
        got = list(zip(*(joined.base_tids(k).tolist() for k in range(3))))
        assert got == expected and got


COSTS = {
    "uniform": uniform_cost,
    "column": ColumnCostModel("c"),
    "opaque": lambda row: 1.0 + row.tid % 3,
}


def lock_step(
    tables, masters, aggregate, column, budget, condition, cost, between_rounds
):
    """Drive the row oracle and the array heuristic side by side.

    Every round both must plan the same base tuple at the same cost.
    ``between_rounds(table name, tids)`` plays the scheduler: it says
    whether the planned refresh lands at all and which other base tuples
    (asked for by other queries) land with it.  Returns the two final
    outcomes, ``("answer", BoundedAnswer)`` or ``("unsatisfiable",)``.
    """
    sides = []
    for heuristic, own_cost in (
        (RowJoinRefreshHeuristic, row_cost(cost)),
        (JoinRefreshHeuristic, cost),
    ):
        own = tuple(table.copy() for table in tables)
        steps = heuristic(own, None, cost=own_cost).execute_steps(
            aggregate, column, budget, condition
        )
        sides.append((own, steps))

    def advance(send):
        outcomes = []
        for _, steps in sides:
            try:
                request = steps.send(send)
                outcomes.append(
                    ("plan", request.table.name, request.plan.tids,
                     request.plan.total_cost)
                )
            except StopIteration as stop:
                outcomes.append(("answer", stop.value))
            except ConstraintUnsatisfiableError:
                outcomes.append(("unsatisfiable",))
        return outcomes

    reference, candidate = advance(None)
    for _ in range(60):
        assert candidate[0] == reference[0]
        if reference[0] != "plan":
            return reference, candidate
        assert candidate == reference
        _, name, tids, _ = reference
        lands, others = between_rounds(name, tids)
        for own, _ in sides:
            if lands:
                refresh_from(masters, own, name, tids)
            for other, tid in others:
                refresh_from(masters, own, other, [tid])
        effective = set(tids) | {tid for other, tid in others if other == name}
        reference, candidate = advance(
            RefreshPlan(frozenset(effective), float(len(effective)))
        )
    pytest.fail("the heuristic did not terminate")


class TestGreedyRounds:
    @given(
        data=instances(),
        condition=st.one_of(st.none(), conditions()),
        aggregate=st.sampled_from(["SUM", "MIN", "MAX", "AVG", "COUNT", "MEDIAN"]),
        column=st.sampled_from([("a", "x"), ("b", "y"), ("a", "v"), ("b", "v")]),
        budget=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]),
        cost=st.sampled_from(sorted(COSTS)),
        scheduler=st.data(),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_refresh_sequence_and_answer(
        self, data, condition, aggregate, column, budget, cost, scheduler
    ):
        tables, masters = data

        def between_rounds(name, tids):
            others = scheduler.draw(
                st.lists(
                    st.sampled_from(
                        [(t.name, tid) for t in tables for tid in t.tids()]
                    ),
                    max_size=2,
                )
            )
            # One refresh in eight never lands (its source is down).
            return scheduler.draw(st.integers(0, 7)) > 0, others

        reference, candidate = lock_step(
            tables, masters, aggregate,
            None if aggregate == "COUNT" else column,
            budget, condition, COSTS[cost], between_rounds,
        )
        if reference[0] == "answer":
            expected, got = reference[1], candidate[1]
            assert got.refreshed == expected.refreshed
            assert got.refresh_cost == expected.refresh_cost
            assert_bounds_close(got.bound, expected.bound, aggregate, "final")
            assert_bounds_close(
                got.initial_bound, expected.initial_bound, aggregate, "initial"
            )

    def test_cross_table_tie_goes_to_the_first_scored_pair(self):
        """Same ratio, same tuple id, two tables: dict insertion order
        decided it in the row loop, i.e. whose base tuple the scored
        joined tuples mention first."""
        tables = Table("a", SCHEMA_A), Table("b", SCHEMA_B)
        masters = Table("a", SCHEMA_A), Table("b", SCHEMA_B)
        for cached, value in ((tables, Bound(0, 10)), (masters, 5.0)):
            for _ in range(2):
                cached[0].insert({"k": 0, "c": 1.0, "x": value, "v": 0.0, "tag": "a"})
                cached[1].insert(
                    {"id": 0, "k": 0, "c": 1.0, "y": value, "v": 0.0, "tag": "a"}
                )
        planned = []

        def between_rounds(name, tids):
            planned.append((name, *tids))
            return True, []

        lock_step(
            tables, masters, "COUNT", None, 0.0,
            Comparison(ColumnRef("x"), "<=", ColumnRef("y")),
            uniform_cost, between_rounds,
        )
        # Round 3 ties a#2 with b#2; (a#1, b#2) is scored before (a#2, b#1).
        assert planned[:3] == [("a", 1), ("b", 1), ("b", 2)]


endpoints = st.one_of(
    quarters, st.sampled_from([-math.inf, math.inf])
)


@st.composite
def top_n_rows(draw):
    rows = []
    for tid in range(1, draw(st.integers(min_value=1, max_value=10)) + 1):
        lo, hi = sorted((draw(endpoints), draw(endpoints)))
        if draw(st.booleans()):
            hi = lo
        rows.append(Row(tid, {"x": Bound(lo, hi)}))
    return rows


class TestTopN:
    @given(rows=top_n_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_value_and_membership(self, rows, data):
        n = data.draw(st.integers(min_value=1, max_value=len(rows)))
        expected = row_topn.bounded_top_n(rows, "x", n)
        got = bounded_top_n(rows, "x", n)
        assert got.nth_value == expected.nth_value
        assert got.certain_members == expected.certain_members
        assert got.possible_members == expected.possible_members

    @given(rows=top_n_rows(), data=st.data(), budget=quarters.map(abs))
    @settings(max_examples=200, deadline=None)
    def test_same_refresh_plan(self, rows, data, budget):
        n = data.draw(st.integers(min_value=1, max_value=len(rows)))
        cost = COSTS["opaque"]
        expected = row_topn.choose_refresh_top_n(rows, "x", n, budget, cost)
        try:
            request = next(top_n_steps(table_of(rows), n, "x", budget, cost=cost))
        except StopIteration as stop:  # the cached bound already fits
            assert stop.value.bound.width <= budget
        except ConstraintUnsatisfiableError:  # too wide, nothing to refresh
            assert not expected.tids
        else:
            assert request.plan == expected


class TestScaling:
    """The row versions take minutes at these sizes."""

    def test_top_n_over_two_thousand_rows(self):
        rows = [
            Row(tid, {"x": Bound(tid % 97, tid % 97 + tid % 7)})
            for tid in range(1, 2001)
        ]
        started = time.perf_counter()
        result = bounded_top_n(rows, "x", 25)
        assert time.perf_counter() - started < 0.25
        assert len(result.certain_members) <= 25 <= len(result.possible_members)

    @pytest.mark.parametrize("condition", ["key", "cross"])
    def test_one_join_round_of_a_thousand_by_three_hundred(self, condition):
        links = Table("links", Schema.of(to_node="exact", traffic="bounded"))
        nodes = Table("nodes", Schema.of(node="exact", load="bounded"))
        for i in range(1000):
            links.insert({"to_node": i % 300, "traffic": Bound(i % 13, i % 13 + i % 5)})
        for i in range(300):
            nodes.insert({"node": i, "load": Bound(i % 11, i % 11 + 1 + i % 3)})
        predicate = (
            Comparison(ColumnRef("to_node"), "=", ColumnRef("node"))
            if condition == "key"
            else Comparison(ColumnRef("traffic"), "<=", ColumnRef("load"))
        )
        steps = JoinRefreshHeuristic([links, nodes], None).execute_steps(
            "SUM", ("nodes", "load"), 1.0, predicate
        )
        started = time.perf_counter()
        request = next(steps)
        assert time.perf_counter() - started < 0.25
        assert request.table is nodes and len(request.plan.tids) == 1
