"""Property: GROUP BY on position pairs agrees with the row oracle.

``repro.extensions.groupby`` classifies the table once, derives dense
group codes from the key columns' arrays and hands each group's share of
the ``(T+, T?)`` pair to the single-table machinery.  The row-at-a-time
GROUP BY it replaced is ``tests/oracle/row_groupby.py``: one ``dict``
lookup per row, row lists per group, the row protocol per list.
Hypothesis generates tables whose numeric key mixes ``int`` and ``float``
values that compare equal, one- and two-column keys, text keys,
predicates of every regime and all three cost shapes, and plays the
scheduler between a yield and its ``send`` — other queries' refreshes
landing too, one refresh in eight not landing at all (its tuples come
back ``unreached``, and the group is answered degraded).  Both sides must
report the same keys (values *and* Python types) in the same order with
the same sizes, plan the same tuples at the same cost for every group,
fail with the same error, and return the same bounds.

The one licensed difference: when the predicate constrains the aggregated
column itself, the array route refines T? bounds (Appendix D) as the same
statement without GROUP BY does, and the row GROUP BY never did.  Those
instances are driven side by side rather than in lock step, and the array
side must then do no worse: a bound inside the oracle's, a plan no
dearer, the same constraint met.

Values sit on a quarter grid, so every sum is exact in float64; bounds
are still compared with the tolerance ``test_columnar_equivalence`` uses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.extensions.median_spec  # noqa: F401  (registers MEDIAN)
from repro.core.bound import Bound
from repro.core.executor import drive_steps
from repro.core.refresh.base import RefreshPlan, uniform_cost
from repro.errors import ConstraintUnsatisfiableError, TrappError
from repro.extensions.groupby import grouped_query_steps
from repro.predicates.ast import And, ColumnRef, Comparison, Literal
from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_groupby import row_grouped_query_steps
from tests.property.test_columnar_equivalence import assert_bounds_close
from tests.property.test_join_columnar import cells
from tests.protocol import row_cost

SCHEMA = Schema.of(
    g="exact", h="exact", tag="text", c="exact", x="bounded", y="bounded"
)

quarters = st.integers(min_value=-16, max_value=16).map(lambda q: q / 4.0)
#: ``1`` and ``1.0`` (``2`` and ``2.0``) are one group, named by whichever
#: the group's first tuple holds.
numeric_keys = st.sampled_from([0, 1, 1.0, 2, 2.0, 10])
GROUPINGS = [["g"], ["tag"], ["g", "tag"], ["h", "g"]]
AGGREGATES = ["MIN", "MAX", "SUM", "COUNT", "AVG", "MEDIAN"]
COSTS = {
    "uniform": uniform_cost,
    "column": ColumnCostModel("c"),  # integral: SUM and AVG plan by exact DP
    "opaque": lambda row: 1.0 + row.tid % 3,
}


@st.composite
def instances(draw, max_rows=9):
    cached, master = Table("t", SCHEMA), Table("t", SCHEMA)
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        exact = {
            "g": draw(numeric_keys),
            "h": draw(st.integers(min_value=0, max_value=1)),
            "tag": draw(st.sampled_from(["a", "b", "c"])),
            "c": float(draw(st.integers(min_value=1, max_value=3))),
        }
        x, y = draw(cells()), draw(cells())
        cached.insert({**exact, "x": x[0], "y": y[0]})
        master.insert({**exact, "x": x[1], "y": y[1]})
    return cached, master


def _compare(column):
    return st.builds(
        Comparison,
        st.just(ColumnRef(column)),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        quarters.map(Literal),
    )


EXACT_ONLY = st.one_of(
    _compare("c"),
    st.sampled_from(["a", "b"]).map(
        lambda tag: Comparison(ColumnRef("tag"), "!=", Literal(tag))
    ),
    st.builds(And, _compare("h"), _compare("c")),
)
#: ``(regime, predicate)``; the last regime is where Appendix D applies
#: to ``x``, the aggregated column.
predicates = st.one_of(
    st.just(("none", None)),
    EXACT_ONLY.map(lambda p: ("exact", p)),
    st.one_of(_compare("y"), st.builds(And, _compare("y"), EXACT_ONLY)).map(
        lambda p: ("bounded", p)
    ),
    st.one_of(_compare("x"), st.builds(And, _compare("x"), _compare("x"))).map(
        lambda p: ("aggregated", p)
    ),
)


def refresh_from(master, table, tids):
    for tid in tids:
        for column in table.schema.bounded_columns:
            table.update_value(tid, column.name, master.row(tid).number(column.name))


def both_sides(arguments):
    """``(generator, arguments)`` for the row oracle, then the array GROUP
    BY; ``arguments`` end in the cost, a function of one row to the oracle."""
    *query, cost = arguments
    return (
        (row_grouped_query_steps, (*query, row_cost(cost))),
        (grouped_query_steps, arguments),
    )


def lock_step(cached, master, arguments, between_rounds):
    """Drive the row oracle and the array GROUP BY side by side.

    Every round both must plan the same tuples at the same cost.
    ``between_rounds(tids)`` plays the scheduler: whether the planned
    refresh lands at all, and which other tuples land with it.  Returns
    the two outcomes, ``("answer", GroupedAnswer)`` or ``("error", type,
    text)``.
    """
    sides = []
    for generator, own_arguments in both_sides(arguments):
        own = cached.copy()
        sides.append((own, generator(own, *own_arguments)))

    def advance(send):
        outcomes = []
        for _, steps in sides:
            try:
                request = steps.send(send)
                outcomes.append(
                    ("plan", request.plan.tids, request.plan.total_cost,
                     request.max_width, request.aggregate)
                )
            except StopIteration as stop:
                outcomes.append(("answer", stop.value))
            except (ConstraintUnsatisfiableError, TrappError) as error:
                outcomes.append(("error", type(error), str(error)))
        return outcomes

    reference, candidate = advance(None)
    for _ in range(len(cached) + 1):
        assert candidate[0] == reference[0], (reference, candidate)
        if reference[0] != "plan":
            return reference, candidate
        assert candidate == reference
        lands, others = between_rounds(reference[1])
        landed = frozenset(reference[1] if lands else ()) | frozenset(others)
        for own, _ in sides:
            refresh_from(master, own, landed)
        reference, candidate = advance(
            RefreshPlan(
                landed, float(len(landed)), frozenset(reference[1]) - landed
            )
        )
    pytest.fail("more yields than tuples")


def assert_same_groups(expected, got, aggregate):
    """Keys (values, types, order) and sizes; returns the paired groups."""
    assert [g.key for g in got.groups] == [g.key for g in expected.groups]
    assert [[type(v) for v in g.key] for g in got.groups] == [
        [type(v) for v in g.key] for g in expected.groups
    ]
    assert [g.size for g in got.groups] == [g.size for g in expected.groups]
    return list(zip(expected.groups, got.groups))


class TestGroupedLockStep:
    @given(
        data=instances(),
        group_by=st.sampled_from(GROUPINGS),
        aggregate=st.sampled_from(AGGREGATES),
        regime_and_predicate=predicates,
        budget=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]),
        cost=st.sampled_from(sorted(COSTS)),
        scheduler=st.data(),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_keys_plans_errors_and_bounds(
        self, data, group_by, aggregate, regime_and_predicate, budget, cost,
        scheduler,
    ):
        cached, master = data
        regime, predicate = regime_and_predicate
        column = None if aggregate == "COUNT" else "x"
        arguments = (group_by, aggregate, column, budget, predicate, COSTS[cost])
        if regime == "aggregated" and aggregate != "COUNT":
            self.refined_does_no_worse(cached, master, arguments)
            return

        def between_rounds(tids):
            others = scheduler.draw(
                st.lists(st.sampled_from(cached.tids()), max_size=2)
            )
            # One refresh in eight never lands (its source is down).
            return scheduler.draw(st.integers(0, 7)) > 0, others

        reference, candidate = lock_step(cached, master, arguments, between_rounds)
        assert candidate[0] == reference[0]
        if reference[0] == "error":
            assert candidate == reference
            return
        expected, got = reference[1], candidate[1]
        for ours, theirs in assert_same_groups(expected, got, aggregate):
            context = f"group {ours.key!r}"
            assert theirs.answer.refreshed == ours.answer.refreshed, context
            assert theirs.answer.refresh_cost == ours.answer.refresh_cost, context
            assert_bounds_close(
                theirs.answer.bound, ours.answer.bound, aggregate, context
            )
            assert_bounds_close(
                theirs.answer.initial_bound, ours.answer.initial_bound,
                aggregate, f"initial, {context}",
            )
        assert got.refreshed == expected.refreshed
        assert got.refresh_cost == expected.refresh_cost
        assert_bounds_close(got.bound, expected.bound, aggregate, "widest")

    @staticmethod
    def refined_does_no_worse(cached, master, arguments):
        """The predicate constrains the aggregated column: the array side
        refines T? bounds per group and the oracle does not."""
        outcomes = []
        for generator, own_arguments in both_sides(arguments):
            own = cached.copy()
            try:
                outcomes.append(
                    drive_steps(
                        generator(own, *own_arguments), LocalRefresher(master)
                    )
                )
            except ConstraintUnsatisfiableError as error:
                outcomes.append(type(error))
        expected, got = outcomes
        if isinstance(expected, type) or isinstance(got, type):
            # A refined bound can meet the budget from the cache where
            # the oracle refreshes its way into an empty answer set;
            # never the other way round.
            assert expected is ConstraintUnsatisfiableError
            return
        budget = arguments[3]
        for ours, theirs in assert_same_groups(expected, got, arguments[1]):
            assert theirs.answer.bound.width <= budget + 1e-9
            assert ours.answer.initial_bound.contains_bound(
                theirs.answer.initial_bound
            )
            if theirs.answer.refreshed != ours.answer.refreshed:
                assert theirs.answer.refresh_cost <= ours.answer.refresh_cost


class TestCardinalityChange:
    def test_positions_are_rederived_after_every_send(self):
        """A tuple leaves and another joins between a yield and its send:
        every later position means a different tuple.  (The row oracle is
        no reference here — it keeps the row lists it started with.)"""
        schema = Schema.of(g="exact", x="bounded")
        cached, master = Table("t", schema), Table("t", schema)
        for g, x, value in [
            (0, Bound(0, 10), 4.0),
            (1, Bound(0, 10), 6.0),
            (1, Bound(20, 30), 25.0),
            (2, 5.0, 5.0),
        ]:
            cached.insert({"g": g, "x": x})
            master.insert({"g": g, "x": value})
        steps = grouped_query_steps(cached, ["g"], "SUM", "x", 0.0)

        first = next(steps)
        assert first.plan.tids == {1}
        for table, x in ((cached, Bound(100, 110)), (master, 105.0)):
            table.delete(2)  # tuples 3 and 4 move one position down
            table.insert({"g": 1, "x": x})  # tuple 5 joins group 1
        refresh_from(master, cached, first.plan.tids)

        second = steps.send(first.plan)
        assert second.plan.tids == {3, 5}
        refresh_from(master, cached, second.plan.tids)
        with pytest.raises(StopIteration) as stop:
            steps.send(second.plan)
        groups = stop.value.value.groups
        assert [(g.key, g.size, g.answer.bound) for g in groups] == [
            ((0,), 1, Bound.exact(4.0)),
            ((1,), 2, Bound.exact(130.0)),
            ((2,), 1, Bound.exact(5.0)),
        ]
        assert groups[1].answer.initial_bound == Bound(120, 140)
