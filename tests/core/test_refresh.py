"""Unit tests for the CHOOSE_REFRESH optimizers (§5, §6, Appendices B/C/F)."""

import math
import random

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.bound import Bound
from repro.core.refresh import (
    CHOOSE_AVG,
    CHOOSE_COUNT,
    CHOOSE_MAX,
    CHOOSE_MIN,
    CHOOSE_SUM,
    AvgChooseRefresh,
    SumChooseRefresh,
    get_choose_refresh,
)
import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.errors import OptimizerError, TrappError, UnknownColumnError
from repro.extensions.topn import top_n_steps
from repro.predicates.parser import parse_predicate
from repro.replication import ColumnCostModel, UniformCostModel
from repro.replication.local import LocalRefresher
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.protocol import bound_of, pair_of, partitioned, plan_of, table_of


def table_with(*bounds):
    """A table holding ``bounds`` on ``x`` under tuple ids 1, 2, …"""
    return partitioned(plus=bounds)[0]


def collapse(table, tids, values):
    """Simulate a refresh: pin each chosen tuple at the given value."""
    for tid in tids:
        table.update_value(tid, "x", Bound.exact(values[tid]))


class TestDispatcher:
    def test_known_aggregates(self):
        assert get_choose_refresh("min") is CHOOSE_MIN
        assert get_choose_refresh("MAX") is CHOOSE_MAX
        assert get_choose_refresh("count") is CHOOSE_COUNT

    def test_unknown_raises(self):
        with pytest.raises(TrappError):
            get_choose_refresh("MODE")

    def test_epsilon_builds_fresh_optimizer(self):
        # ε is set where a chooser is built; the dispatcher serves the
        # paper's default.
        chooser = SumChooseRefresh(epsilon=0.05)
        assert chooser is not CHOOSE_SUM and chooser.epsilon == 0.05
        chooser = AvgChooseRefresh(epsilon=0.05)
        assert chooser is not CHOOSE_AVG and chooser._sum.epsilon == 0.05
        assert get_choose_refresh("sum") is CHOOSE_SUM
        assert get_choose_refresh("avg") is CHOOSE_AVG
        assert CHOOSE_SUM.epsilon == CHOOSE_AVG.epsilon == 0.1


class TestChooseMin:
    def test_selects_below_threshold(self):
        table = table_with(Bound(0, 10), Bound(6, 8), Bound(7, 9))
        # min hi = 8; R = 3 -> threshold 5: only tuple 1 (lo=0) qualifies.
        plan = plan_of(CHOOSE_MIN, table, "x", 3)
        assert set(plan.tids) == {1}

    def test_zero_width_budget_refreshes_all_contenders(self):
        table = table_with(Bound(0, 10), Bound(6, 8))
        plan = plan_of(CHOOSE_MIN, table, "x", 0)
        assert set(plan.tids) == {1, 2}

    def test_infinite_budget_refreshes_nothing(self):
        table = table_with(Bound(0, 10), Bound(6, 8))
        plan = plan_of(CHOOSE_MIN, table, "x", math.inf)
        assert not plan.tids

    def test_guarantee_worst_case(self):
        """Whatever values the refreshed tuples take, width <= R."""
        rng = random.Random(17)
        for _ in range(50):
            table = table_with(
                *[
                    Bound(lo, lo + rng.uniform(0, 10))
                    for lo in (rng.uniform(-20, 20) for _ in range(8))
                ]
            )
            budget = rng.uniform(0, 12)
            plan = plan_of(CHOOSE_MIN, table, "x", budget)
            # Adversarial realization: every refreshed value at its top.
            collapse(table, plan.tids, {r.tid: r.bound("x").hi for r in table.rows()})
            assert bound_of(MIN, table, "x").width <= budget + 1e-9

    def test_necessity_each_refreshed_tuple_was_required(self):
        """Leaving out any chosen tuple can violate the constraint
        (Appendix B's 'every solution contains TR' direction)."""
        bounds = (Bound(0, 10), Bound(6, 8), Bound(-5, 9))
        budget = 3.0
        plan = plan_of(CHOOSE_MIN, table_with(*bounds), "x", budget)
        for omitted in plan.tids:
            fresh = table_with(*bounds)
            keep = set(plan.tids) - {omitted}
            # Refresh all kept tuples at their upper endpoints (worst case).
            collapse(fresh, keep, {r.tid: r.bound("x").hi for r in fresh.rows()})
            width = bound_of(MIN, fresh, "x").width
            assert width > budget - 1e-9

    def test_with_classification_threshold_from_plus(self):
        table, pair = partitioned(plus=[Bound(5, 8)], maybe=[Bound(0, 10), Bound(7, 9)])
        # threshold = min_{T+} hi - R = 8 - 2 = 6: tuples with lo < 6.
        plan = plan_of(CHOOSE_MIN, table, "x", 2, pair=pair)
        assert set(plan.tids) == {1, 2}


class TestChooseMax:
    def test_mirror_of_min(self):
        table = table_with(Bound(0, 10), Bound(2, 4), Bound(1, 3))
        # max lo = 2; R = 3 -> threshold 5: tuples with hi > 5.
        plan = plan_of(CHOOSE_MAX, table, "x", 3)
        assert set(plan.tids) == {1}

    def test_guarantee_worst_case(self):
        rng = random.Random(23)
        for _ in range(50):
            table = table_with(
                *[
                    Bound(lo, lo + rng.uniform(0, 10))
                    for lo in (rng.uniform(-20, 20) for _ in range(8))
                ]
            )
            budget = rng.uniform(0, 12)
            plan = plan_of(CHOOSE_MAX, table, "x", budget)
            collapse(table, plan.tids, {r.tid: r.bound("x").lo for r in table.rows()})
            assert bound_of(MAX, table, "x").width <= budget + 1e-9

    def test_with_classification(self):
        table, pair = partitioned(plus=[Bound(5, 8)], maybe=[Bound(0, 10)])
        # threshold = max_{T+} lo + R = 5 + 2 = 7: hi > 7 refreshes.
        plan = plan_of(CHOOSE_MAX, table, "x", 2, pair=pair)
        assert set(plan.tids) == {1, 2}


class TestChooseSum:
    def test_uniform_cost_greedy_keeps_narrow(self):
        table = table_with(Bound(0, 1), Bound(0, 5), Bound(0, 2))
        plan = plan_of(CHOOSE_SUM, table, "x", 3)
        # keep widths 1 + 2 = 3 <= 3; refresh the width-5 tuple.
        assert set(plan.tids) == {2}

    def test_cost_aware_keeps_expensive(self, cost_func=None):
        table = table_with(Bound(0, 3), Bound(0, 3))
        costs = {1: 100.0, 2: 1.0}
        chooser = SumChooseRefresh()
        plan = plan_of(chooser, table, "x", 3, lambda r: costs[r.tid])
        # Budget admits one kept tuple; keep the expensive one.
        assert set(plan.tids) == {2}

    def test_guarantee_worst_case(self):
        rng = random.Random(29)
        for _ in range(40):
            table = table_with(
                *[
                    Bound(lo, lo + rng.uniform(0, 6))
                    for lo in (rng.uniform(-10, 10) for _ in range(8))
                ]
            )
            budget = rng.uniform(0, 15)
            costs = {tid: float(rng.randint(1, 10)) for tid in table.tids()}
            plan = plan_of(CHOOSE_SUM, table, "x", budget, lambda r: costs[r.tid])
            # Width after refresh is realization-independent for SUM.
            collapse(table, plan.tids, {r.tid: r.bound("x").lo for r in table.rows()})
            assert bound_of(SUM, table, "x").width <= budget + 1e-9

    def test_with_classification_extends_maybe_to_zero(self):
        table, pair = partitioned(plus=[Bound(4, 5)], maybe=[Bound(3, 4)])
        # T? weight is hi = 4 (zero-extended), T+ weight is 1.
        chooser = SumChooseRefresh()
        plan = plan_of(chooser, table, "x", 1.5, pair=pair)
        assert set(plan.tids) == {2}

    def test_minus_never_refreshed(self):
        table, pair = partitioned(plus=[Bound(0, 10)], minus=[Bound(0, 100)])
        plan = plan_of(CHOOSE_SUM, table, "x", 0, pair=pair)
        assert set(plan.tids) == {1}


class TestChooseCount:
    def test_no_predicate_never_refreshes(self):
        plan = plan_of(CHOOSE_COUNT, table_with(Bound(0, 100)), None, 0)
        assert not plan.tids

    def test_refreshes_cheapest_maybes(self):
        table, pair = partitioned(maybe=[Bound(0, 9)] * 4)
        costs = {1: 5.0, 2: 1.0, 3: 3.0, 4: 2.0}
        plan = plan_of(
            CHOOSE_COUNT, table, None, 1.5, lambda r: costs[r.tid], pair=pair
        )
        # ceil(4 - 1.5) = 3 cheapest: tuples 2, 4, 3.
        assert set(plan.tids) == {2, 3, 4}
        assert plan.total_cost == 6.0

    def test_integral_budget_edge(self):
        table, pair = partitioned(maybe=[Bound(0, 9)] * 3)
        plan = plan_of(CHOOSE_COUNT, table, None, 3, pair=pair)
        assert not plan.tids
        plan = plan_of(CHOOSE_COUNT, table, None, 2, pair=pair)
        assert len(plan.tids) == 1

    def test_infinite_budget(self):
        table, pair = partitioned(maybe=[Bound(0, 9)] * 3)
        plan = plan_of(CHOOSE_COUNT, table, None, math.inf, pair=pair)
        assert not plan.tids


class TestChooseAvg:
    def test_no_predicate_scales_budget_by_count(self):
        table = table_with(Bound(0, 6), Bound(0, 6), Bound(0, 6))
        chooser = AvgChooseRefresh()
        # R = 2 with count 3 -> SUM budget 6: keep one tuple.
        plan = plan_of(chooser, table, "x", 2)
        assert len(plan.tids) == 2

    def test_empty_table(self):
        plan = plan_of(CHOOSE_AVG, table_with(), "x", 1)
        assert not plan.tids

    def test_guarantee_with_predicate_randomized(self):
        """After refreshing the chosen set, the tight AVG bound meets R for
        adversarial realizations of refreshed values and memberships."""
        rng = random.Random(31)
        for _ in range(30):
            n_plus = rng.randint(1, 3)
            n_maybe = rng.randint(0, 4)
            plus = [
                Bound(lo, lo + rng.uniform(0, 4))
                for lo in (rng.uniform(0, 10) for _ in range(n_plus))
            ]
            maybe = [
                Bound(lo, lo + rng.uniform(0, 4))
                for lo in (rng.uniform(0, 10) for _ in range(n_maybe))
            ]
            table, pair = partitioned(plus=plus, maybe=maybe)
            budget = rng.uniform(0.5, 5)
            chooser = AvgChooseRefresh()
            plan = plan_of(chooser, table, "x", budget, pair=pair)

            # Adversarial realization: each refreshed T? tuple randomly
            # stays or leaves; refreshed values at a random endpoint.
            for trial in range(8):
                rows, new_plus, new_maybe = [], [], []
                for tid, b in enumerate(plus + maybe, start=1):
                    if tid in plan.tids:
                        b = Bound.exact(b.lo if rng.random() < 0.5 else b.hi)
                        if tid <= n_plus or rng.random() < 0.5:
                            new_plus.append(tid)
                        # else: the refreshed T? tuple fell into T−.
                    else:
                        (new_plus if tid <= n_plus else new_maybe).append(tid)
                    rows.append(Row(tid, {"x": b}))
                realized = table_of(rows)
                bound = bound_of(
                    AVG, realized, "x", pair_of(realized, new_plus, new_maybe)
                )
                assert bound.width <= budget + 1e-6

    def test_degenerate_no_plus_refreshes_all_maybes(self):
        table, pair = partitioned(maybe=[Bound(0, 9), Bound(1, 2)])
        plan = plan_of(CHOOSE_AVG, table, "x", 1, pair=pair)
        assert set(plan.tids) >= {1, 2}


BAD_COSTS = [-1.0, math.nan, math.inf]


class TestRefreshCostsAreValidated:
    """A refresh cost is a finite non-negative number, for every planner.

    Checked once, where candidates are priced
    (``candidate_costs``): the forced-set choosers used to add up
    whatever they were given and report a negative ``refresh_cost``.
    """

    AGGREGATES = ["MIN", "MAX", "SUM", "AVG", "MEDIAN", "COUNT"]

    @staticmethod
    def execute(aggregate, cost, y=(1.0, 1.0)):
        schema = Schema.of(x="bounded", y="exact")
        cached, master = Table("t", schema), Table("t", schema)
        for value in y:
            cached.insert({"x": Bound(0.0, 10.0), "y": value})
            master.insert({"x": 5.0, "y": value})
        # COUNT only refreshes (and prices) under a bounded predicate.
        predicate = parse_predicate("x > 1") if aggregate == "COUNT" else None
        column = None if aggregate == "COUNT" else "x"
        steps = table_steps(cached, aggregate, column, 0.0, predicate, cost)
        return drive_steps(steps, LocalRefresher(master))

    @pytest.mark.parametrize("bad", [-1.0, math.inf], ids=str)  # no NaN cell
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_cost_column(self, aggregate, bad):
        with pytest.raises(OptimizerError, match=r"tuple #2"):
            self.execute(aggregate, ColumnCostModel("y"), y=(1.0, bad))

    @pytest.mark.parametrize("bad", BAD_COSTS, ids=str)
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_opaque_callable(self, aggregate, bad):
        with pytest.raises(OptimizerError, match=r"tuple #1"):
            self.execute(aggregate, lambda row: bad)

    @pytest.mark.parametrize("bad", BAD_COSTS, ids=str)
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_uniform_constant(self, aggregate, bad):
        with pytest.raises(OptimizerError, match=r"tuple #1"):
            self.execute(aggregate, UniformCostModel(bad))

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_zero_is_a_cost(self, aggregate):
        answer = self.execute(aggregate, lambda row: 0.0)
        assert answer.refreshed and answer.refresh_cost == 0.0

    @pytest.mark.parametrize("bad", BAD_COSTS, ids=str)
    def test_top_n(self, bad):
        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(0.0, 10.0)})
        table.insert({"x": Bound(5.0, 15.0)})
        with pytest.raises(OptimizerError, match=r"tuple #"):
            next(top_n_steps(table, 1, "x", 0.0, cost=lambda row: bad))


class TestCostColumnMustHoldExactNumbers:
    """``ColumnCostModel`` over a column that is not an exact number: a
    typed error naming table, column and tuple — it used to escape as the
    ``ValueError`` / ``TypeError`` of whatever read the cell."""

    SCHEMA = Schema.of(x="bounded", y="bounded", tag="text")

    def table(self):
        table = Table("links", self.SCHEMA)
        table.insert({"x": Bound(0.0, 10.0), "y": 2.0, "tag": "a"})
        table.insert({"x": Bound(0.5, 15.0), "y": Bound(1.0, 3.0), "tag": "b"})
        return table

    def run(self, statement, column):
        cost = ColumnCostModel(column)
        if statement == "TOPN":
            return next(top_n_steps(self.table(), 1, "x", 0.0, cost=cost))
        predicate = parse_predicate("x > 1") if statement == "COUNT" else None
        steps = table_steps(
            self.table(), statement, None if statement == "COUNT" else "x",
            0.0, predicate, cost,
        )
        return drive_steps(steps, NullRefreshProvider())

    STATEMENTS = [*TestRefreshCostsAreValidated.AGGREGATES, "TOPN"]

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_text_column(self, statement):
        with pytest.raises(
            OptimizerError,
            match=r"cost column 'tag' of table 'links' holds 'a' for tuple #1",
        ):
            self.run(statement, "tag")

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_wide_bound(self, statement):
        with pytest.raises(
            OptimizerError,
            match=r"cost column 'y' of table 'links' holds the bound \[1, 3\] "
            r"for tuple #2",
        ):
            self.run(statement, "y")

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_unknown_column(self, statement):
        with pytest.raises(UnknownColumnError, match="'nope' in table 'links'"):
            self.run(statement, "nope")
