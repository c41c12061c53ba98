"""Tests for batching amortization, GROUP BY, and relative precision."""

import pytest

from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.core.refresh.base import RefreshPlan
from repro.errors import ConstraintUnsatisfiableError, TrappError
from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.extensions.groupby import grouped_query_steps
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table


class TestBatchedCostModel:
    def test_amortization(self):
        model = BatchedCostModel(setup=5.0, marginal=1.0)
        # One batch: 5 + 3 * 1 = 8, versus naive 3 * 6 = 18.
        assert model.cost_of_counts({"s1": 3}) == 8.0
        assert model.upper_bound_model().cost == 6.0

    def test_multiple_sources(self):
        model = BatchedCostModel(setup=5.0, marginal=1.0)
        assert model.cost_of_counts({"s1": 2, "s2": 1}) == (5 + 2) + (5 + 1)

    def test_empty_set_is_free(self):
        assert BatchedCostModel().cost_of_counts({}) == 0.0


class TestRebatchPlan:
    TIDS = [1, 2, 3, 4]
    SOURCE_OF = {1: "s1", 2: "s1", 3: "s2", 4: "s1"}

    def rebatch(self, plan, widths, model):
        return rebatch_plan(
            plan, self.TIDS, widths, self.SOURCE_OF, budget_slack=0.0, model=model
        )

    def test_never_costs_more(self):
        model = BatchedCostModel(setup=5.0, marginal=1.0)
        plan = RefreshPlan(frozenset({1, 3}), 0.0)
        improved = self.rebatch(plan, [3.0, 3.0, 3.0, 4.0], model)
        assert improved.total_cost <= model.cost_of_counts({"s1": 1, "s2": 1}) + 1e-9

    def test_keeps_width_requirement(self):
        model = BatchedCostModel(setup=5.0, marginal=1.0)
        widths = [3.0, 3.0, 3.0, 4.0]
        plan = RefreshPlan(frozenset({1, 3}), 0.0)
        required = widths[0] + widths[2]  # slack 0
        improved = self.rebatch(plan, widths, model)
        removed = sum(widths[t - 1] for t in improved.tids)
        assert removed + 1e-9 >= required

    def test_absorbs_same_source_tuple_to_drop_foreign_one(self):
        """s2's setup can be saved by absorbing a same-width s1 tuple."""
        model = BatchedCostModel(setup=10.0, marginal=1.0)
        plan = RefreshPlan(frozenset({1, 3}), 0.0)  # s1 + s2: cost 22
        improved = self.rebatch(plan, [3.0] * 4, model)
        # Optimal: {1, 2} or {1, 4} all from s1: cost 12.
        sources = {self.SOURCE_OF[t] for t in improved.tids}
        assert improved.total_cost <= 12.0 + 1e-9
        assert sources == {"s1"}


@pytest.fixture
def grouped_tables():
    schema = Schema.of(region="text", load="bounded", cost="exact")
    cached = Table("servers", schema)
    master = Table("servers", schema)
    data = [
        ("east", Bound(10, 20), 15.0, 1.0),
        ("east", Bound(30, 35), 32.0, 2.0),
        ("west", Bound(5, 50), 40.0, 3.0),
        ("west", Bound(0, 10), 5.0, 1.0),
    ]
    for region, bound, value, cost in data:
        cached.insert({"region": region, "load": bound, "cost": cost})
        master.insert({"region": region, "load": value, "cost": cost})
    return cached, master


def grouped(table, group_by, aggregate, column, constraint, refresher=None):
    """The per-group results of a GROUP BY statement driven serially."""
    steps = grouped_query_steps(table, group_by, aggregate, column, constraint)
    return drive_steps(steps, refresher or NullRefreshProvider()).groups


class TestGroupedQuery:
    def test_groups_partition_rows(self, grouped_tables):
        cached, master = grouped_tables
        results = grouped(
            cached, ["region"], "SUM", "load", 1000.0,
            refresher=LocalRefresher(master),
        )
        assert [r.key for r in results] == [("east",), ("west",)]
        assert [r.size for r in results] == [2, 2]

    def test_per_group_constraint_enforced(self, grouped_tables):
        cached, master = grouped_tables
        results = grouped(
            cached, ["region"], "SUM", "load", 5.0,
            refresher=LocalRefresher(master),
        )
        for result in results:
            assert result.answer.width <= 5 + 1e-9
        east = results[0]
        assert east.answer.bound.contains(15 + 32)
        west = results[1]
        assert west.answer.bound.contains(40 + 5)

    def test_bounded_grouping_column_rejected(self, grouped_tables):
        cached, _ = grouped_tables
        with pytest.raises(TrappError):
            grouped(cached, ["load"], "SUM", "cost", 1.0)

    def test_empty_group_by_rejected(self, grouped_tables):
        cached, _ = grouped_tables
        with pytest.raises(TrappError):
            grouped(cached, [], "SUM", "load", 1.0)

    def test_groups_refresh_independently(self, grouped_tables):
        cached, master = grouped_tables
        refresher = LocalRefresher(master)
        results = grouped(
            cached, ["region"], "SUM", "load", 6.0, refresher=refresher
        )
        # East group widths: 10 + 5 = 15 > 6, needs refreshes; its plan
        # should not touch west tuples and vice versa.
        east = results[0]
        west = results[1]
        east_tids = {1, 2}
        west_tids = {3, 4}
        assert set(east.answer.refreshed) <= east_tids
        assert set(west.answer.refreshed) <= west_tids

    def test_count_star_per_group(self, grouped_tables):
        cached, master = grouped_tables
        results = grouped(
            cached, ["region"], "COUNT", None, 0.0,
            refresher=LocalRefresher(master),
        )
        assert all(r.answer.bound == Bound.exact(2) for r in results)


@pytest.fixture
def relative_tables():
    schema = Schema.of(x="bounded", cost="exact")
    cached = Table("t", schema)
    master = Table("t", schema)
    for bound, value in [(Bound(90, 110), 100.0), (Bound(190, 210), 200.0),
                         (Bound(40, 60), 50.0)]:
        cached.insert({"x": bound, "cost": 1.0})
        master.insert({"x": value, "cost": 1.0})
    return cached, master


class TestRelativePrecision:
    """§8.1 relative constraints: ``RelativePrecision`` through the
    executor, R re-resolved from every bound."""

    @staticmethod
    def run(cached, master, fraction):
        steps = table_steps(cached, "SUM", "x", RelativePrecision(fraction))
        return drive_steps(steps, LocalRefresher(master))

    def test_relative_constraint_met(self, relative_tables):
        answer = self.run(*relative_tables, 0.05)
        # Final width must be within 2 * |A| * P for the true A = 350.
        assert answer.width <= 2 * 350 * 0.05 + 1e-6
        assert answer.bound.contains(350)

    def test_already_tight_needs_no_refresh(self, relative_tables):
        answer = self.run(*relative_tables, 0.5)
        assert not answer.refreshed

    def test_zero_straddling_iterates(self):
        schema = Schema.of(x="bounded")
        cached = Table("t", schema)
        master = Table("t", schema)
        cached.insert({"x": Bound(-100, 120)})
        master.insert({"x": 30.0})
        cached.insert({"x": Bound(-50, 50)})
        master.insert({"x": -20.0})
        answer = self.run(cached, master, 0.1)
        assert answer.bound.contains(10)
        assert answer.width <= 2 * 10 * 0.1 + 1e-6

    def test_relative_constraint_per_group(self, grouped_tables):
        """GROUP BY takes the constraint itself: each group's R comes
        from that group's own bound."""
        cached, master = grouped_tables
        relative = RelativePrecision(0.05)
        steps = grouped_query_steps(cached, ["region"], "SUM", "load", relative)
        groups = drive_steps(steps, LocalRefresher(master)).groups
        for group, truth in zip(groups, (15.0 + 32.0, 40.0 + 5.0)):
            assert relative.satisfied_by(group.answer.bound)
            assert group.answer.bound.contains(truth)

    def test_zero_straddling_without_refresher_raises(self):
        schema = Schema.of(x="bounded")
        cached = Table("t", schema)
        cached.insert({"x": Bound(-1, 1)})
        with pytest.raises(ConstraintUnsatisfiableError):
            steps = table_steps(cached, "SUM", "x", RelativePrecision(0.1))
            drive_steps(steps, NullRefreshProvider())
