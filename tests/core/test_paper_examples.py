"""Golden tests: every worked example from the paper, end to end.

These pin the implementation to the paper's own numbers over the Figure 2
sample data:

* Q1 — bottleneck (MIN bandwidth) along N1→N2→N4→N5→N6, R=10;
* Q2 — total (SUM) latency along the same path, R=5;
* Q3 — AVG traffic network-wide, R=10;
* Q4 — MIN traffic where bandwidth > 50 AND latency < 10, R=10;
* Q5 — COUNT of links with latency > 10, R=1;
* Q6 — AVG latency where traffic > 100, R=2 (tight + loose bounds).
"""

import pytest

from repro.core.aggregates import AVG, COUNT, MIN, SUM, loose_avg_bound
from repro.core.executor import drive_steps, table_steps
from repro.core.refresh import (
    CHOOSE_COUNT,
    CHOOSE_MIN,
    AvgChooseRefresh,
    SumChooseRefresh,
)
from repro.core.bound import Bound
from repro.predicates.parser import parse_predicate
from tests.oracle.row_eval import contains_bound
from tests.protocol import bound_of, classified, pair_of, plan_of, tids_at


def path(cached_links, tids=(1, 2, 5, 6)):
    """Tuples on the example path N1→N2→N4→N5→N6 (Figure 2 rows 1,2,5,6),
    as a ``(T+, T?)`` pair: all certain, none in doubt."""
    return pair_of(cached_links, tids)


def classes(table, predicate):
    """``(T+, T?, T−)`` as tuple-id sets, and the served ``(T+, T?)`` pair."""
    pair = classified(table, parse_predicate(predicate))
    plus, maybe = (tids_at(table, at) for at in pair)
    return (plus, maybe, set(table.tids()) - plus - maybe), pair


class TestQ1MinBandwidth:
    def test_initial_bounded_answer(self, cached_links):
        bound = bound_of(MIN, cached_links, "bandwidth", path(cached_links))
        assert bound == Bound(40, 55)

    def test_choose_refresh_selects_tuple_5(self, cached_links, cost_func):
        plan = plan_of(
            CHOOSE_MIN, cached_links, "bandwidth", 10, cost_func, path(cached_links)
        )
        assert set(plan.tids) == {5}
        assert plan.total_cost == 4

    def test_answer_after_refresh(self, cached_links, refresher, cost_func):
        plan = plan_of(
            CHOOSE_MIN, cached_links, "bandwidth", 10, cost_func, path(cached_links)
        )
        refresher.refresh(cached_links, plan.tids)
        bound = bound_of(MIN, cached_links, "bandwidth", path(cached_links))
        assert bound == Bound(45, 50)


class TestQ2SumLatency:
    def test_initial_bounded_answer(self, cached_links):
        bound = bound_of(SUM, cached_links, "latency", path(cached_links))
        assert bound == Bound(19, 28)

    def test_optimal_knapsack_refreshes_1_and_6(self, cached_links, cost_func):
        chooser = SumChooseRefresh()
        plan = plan_of(
            chooser, cached_links, "latency", 5, cost_func, path(cached_links)
        )
        assert set(plan.tids) == {1, 6}
        assert plan.total_cost == 5  # costs 3 + 2

    def test_answer_after_refresh(self, cached_links, refresher, cost_func):
        chooser = SumChooseRefresh()
        plan = plan_of(
            chooser, cached_links, "latency", 5, cost_func, path(cached_links)
        )
        refresher.refresh(cached_links, plan.tids)
        bound = bound_of(SUM, cached_links, "latency", path(cached_links))
        assert bound == Bound(21, 26)


class TestQ3AvgTraffic:
    def test_initial_count_is_exact_six(self, cached_links):
        assert bound_of(COUNT, cached_links, None) == Bound.exact(6)

    def test_choose_refresh_selects_5_and_6(self, cached_links, cost_func):
        chooser = AvgChooseRefresh()
        plan = plan_of(chooser, cached_links, "traffic", 10, cost_func)
        assert set(plan.tids) == {5, 6}

    def test_sum_and_avg_after_refresh(self, cached_links, refresher, cost_func):
        chooser = AvgChooseRefresh()
        plan = plan_of(chooser, cached_links, "traffic", 10, cost_func)
        refresher.refresh(cached_links, plan.tids)
        total = bound_of(SUM, cached_links, "traffic")
        assert total == Bound(618, 678)
        avg = bound_of(AVG, cached_links, "traffic")
        assert avg == Bound(103, 113)


Q4_PREDICATE = "bandwidth > 50 AND latency < 10"


class TestQ4MinTrafficWithPredicate:
    def test_classification_before_refresh(self, cached_links):
        (plus, maybe, minus), _ = classes(cached_links, Q4_PREDICATE)
        assert plus == {1}
        assert maybe == {2, 4, 5, 6}
        assert minus == {3}

    def test_initial_bounded_answer(self, cached_links):
        _, pair = classes(cached_links, Q4_PREDICATE)
        assert bound_of(MIN, cached_links, "traffic", pair) == Bound(90, 105)

    def test_choose_refresh_selects_5_and_6(self, cached_links, cost_func):
        _, pair = classes(cached_links, Q4_PREDICATE)
        plan = plan_of(CHOOSE_MIN, cached_links, "traffic", 10, cost_func, pair)
        assert set(plan.tids) == {5, 6}

    def test_answer_after_refresh(self, cached_links, refresher, cost_func):
        _, pair = classes(cached_links, Q4_PREDICATE)
        plan = plan_of(CHOOSE_MIN, cached_links, "traffic", 10, cost_func, pair)
        refresher.refresh(cached_links, plan.tids)
        (_, _, minus), pair2 = classes(cached_links, Q4_PREDICATE)
        # Refreshed tuples 5 and 6 fail the predicate (bandwidth 50 and 45).
        assert minus >= {5, 6}
        assert bound_of(MIN, cached_links, "traffic", pair2) == Bound(95, 105)


Q5_PREDICATE = "latency > 10"


class TestQ5CountHighLatency:
    def test_classification(self, cached_links):
        (plus, maybe, minus), _ = classes(cached_links, Q5_PREDICATE)
        assert plus == {3}
        assert maybe == {4, 5}
        assert minus == {1, 2, 6}

    def test_initial_bounded_answer(self, cached_links):
        _, pair = classes(cached_links, Q5_PREDICATE)
        assert bound_of(COUNT, cached_links, None, pair) == Bound(1, 3)

    def test_choose_refresh_picks_cheapest_maybe(self, cached_links, cost_func):
        _, pair = classes(cached_links, Q5_PREDICATE)
        plan = plan_of(CHOOSE_COUNT, cached_links, None, 1, cost_func, pair)
        # |T?| - R = 1 tuple; tuple 5 (cost 4) beats tuple 4 (cost 8).
        assert set(plan.tids) == {5}
        assert plan.total_cost == 4

    def test_answer_after_refresh(self, cached_links, refresher, cost_func):
        _, pair = classes(cached_links, Q5_PREDICATE)
        plan = plan_of(CHOOSE_COUNT, cached_links, None, 1, cost_func, pair)
        refresher.refresh(cached_links, plan.tids)
        _, pair2 = classes(cached_links, Q5_PREDICATE)
        # Tuple 5's precise latency is 11 > 10: it lands in T+.
        assert bound_of(COUNT, cached_links, None, pair2) == Bound(2, 3)


Q6_PREDICATE = "traffic > 100"


class TestQ6AvgLatencyWithPredicate:
    def test_classification(self, cached_links):
        (plus, maybe, minus), _ = classes(cached_links, Q6_PREDICATE)
        assert plus == {2, 4}
        assert maybe == {1, 3, 5, 6}
        assert not minus

    def test_tight_bound(self, cached_links):
        _, pair = classes(cached_links, Q6_PREDICATE)
        bound = bound_of(AVG, cached_links, "latency", pair)
        assert bound.lo == pytest.approx(5.0)
        assert bound.hi == pytest.approx(34 / 3)

    def test_loose_bound(self, cached_links):
        _, pair = classes(cached_links, Q6_PREDICATE)
        total = bound_of(SUM, cached_links, "latency", pair)
        count = bound_of(COUNT, cached_links, None, pair)
        assert total == Bound(14, 55)
        assert count == Bound(2, 6)
        loose = loose_avg_bound(total, count)
        assert loose.lo == pytest.approx(14 / 6)
        assert loose.hi == pytest.approx(27.5)

    def test_tight_is_inside_loose(self, cached_links):
        _, pair = classes(cached_links, Q6_PREDICATE)
        tight = bound_of(AVG, cached_links, "latency", pair)
        loose = loose_avg_bound(
            bound_of(SUM, cached_links, "latency", pair),
            bound_of(COUNT, cached_links, None, pair),
        )
        assert contains_bound(loose, tight)

    def test_choose_refresh_keeps_2_and_4(self, cached_links, cost_func):
        _, pair = classes(cached_links, Q6_PREDICATE)
        chooser = AvgChooseRefresh()
        plan = plan_of(chooser, cached_links, "latency", 2, cost_func, pair)
        assert set(plan.tids) == {1, 3, 5, 6}

    def test_answer_after_refresh(self, cached_links, refresher, cost_func):
        _, pair = classes(cached_links, Q6_PREDICATE)
        chooser = AvgChooseRefresh()
        plan = plan_of(chooser, cached_links, "latency", 2, cost_func, pair)
        refresher.refresh(cached_links, plan.tids)
        _, pair2 = classes(cached_links, Q6_PREDICATE)
        bound = bound_of(AVG, cached_links, "latency", pair2)
        assert bound == Bound(8, 9)


class TestEndToEndExecutor:
    """The same examples through the three-step executor."""

    def test_q2_executor(self, cached_links, refresher, cost_func):
        # Q2 ranges over the path tuples {1, 2, 5, 6} only; build that view.
        from repro.storage.table import Table

        path = Table("links", cached_links.schema)
        for tid in (1, 2, 5, 6):
            path.insert(cached_links.row(tid).as_dict(), tid=tid)
        steps = table_steps(path, "SUM", "latency", 5, cost=cost_func)
        answer = drive_steps(steps, refresher)
        assert answer.initial_bound == Bound(19, 28)
        assert answer.bound == Bound(21, 26)
        assert set(answer.refreshed) == {1, 6}
        assert answer.refresh_cost == 5

    def test_q4_executor(self, cached_links, refresher, cost_func):
        steps = table_steps(
            cached_links,
            "MIN",
            "traffic",
            10,
            predicate=parse_predicate(Q4_PREDICATE),
            cost=cost_func,
        )
        answer = drive_steps(steps, refresher)
        assert answer.bound == Bound(95, 105)
        assert set(answer.refreshed) == {5, 6}

    def test_q5_executor(self, cached_links, refresher, cost_func):
        steps = table_steps(
            cached_links,
            "COUNT",
            None,
            1,
            predicate=parse_predicate(Q5_PREDICATE),
            cost=cost_func,
        )
        answer = drive_steps(steps, refresher)
        assert answer.bound == Bound(2, 3)
        assert set(answer.refreshed) == {5}

    def test_q6_executor(self, cached_links, refresher, cost_func):
        steps = table_steps(
            cached_links,
            "AVG",
            "latency",
            2,
            predicate=parse_predicate(Q6_PREDICATE),
            cost=cost_func,
        )
        answer = drive_steps(steps, refresher)
        assert answer.bound == Bound(8, 9)
        assert set(answer.refreshed) == {1, 3, 5, 6}

    def test_no_refresh_when_constraint_already_met(self, cached_links, refresher):
        steps = table_steps(cached_links, "SUM", "latency", 1000)
        answer = drive_steps(steps, refresher)
        assert not answer.refreshed
        assert answer.refresh_cost == 0
        # SUM of latency over all six tuples: lows 2+5+12+9+8+4=40,
        # highs 4+7+16+11+11+6=55.
        assert answer.bound == Bound(40, 55)
