"""Tests for the bounded MEDIAN and TOP-n extensions (§8.1)."""

import itertools
import math
import random

import pytest

from repro.core.bound import Bound
from repro.core.executor import NullRefreshProvider, drive_steps
from repro.core.refresh.base import RefreshPlan
from repro.errors import TrappError
from repro.extensions.median_spec import CHOOSE_MEDIAN, MEDIAN, median_of
from repro.extensions.topn import top_n_steps
from repro.storage.row import Row
from tests.protocol import bound_of, plan_of, table_of


def rows_of(*bounds):
    return [Row(i + 1, {"x": b}) for i, b in enumerate(bounds)]


def bounded_median(rows, column):
    """The served §5 MEDIAN answer over hand-written rows."""
    return bound_of(MEDIAN, table_of(rows), column)


def bounded_top_n(rows, column, n):
    """The served TOP-n answer over hand-written rows, from the cached
    bounds alone: the n-th value is its ``bound``."""
    steps = top_n_steps(table_of(rows), n, column, math.inf)
    return drive_steps(steps, NullRefreshProvider())


def choose_refresh_median(rows, column, max_width, cost=None):
    """The served §5 MEDIAN plan over hand-written rows."""
    args = () if cost is None else (cost,)
    return plan_of(CHOOSE_MEDIAN, table_of(rows), column, max_width, *args)


class TestMedianOf:
    def test_odd(self):
        assert median_of([3, 1, 2]) == 2

    def test_even_lower_median(self):
        assert median_of([1, 2, 3, 4]) == 2

    def test_empty_rejected(self):
        with pytest.raises(TrappError):
            median_of([])


class TestBoundedMedian:
    def test_basic(self):
        rows = rows_of(Bound(1, 3), Bound(2, 8), Bound(5, 6))
        assert bounded_median(rows, "x") == Bound(2, 6)

    def test_containment_exhaustive(self):
        """For every endpoint realization, the true median lies inside the
        bounded median."""
        bounds = [Bound(0, 4), Bound(2, 6), Bound(3, 3), Bound(1, 9)]
        rows = rows_of(*bounds)
        answer = bounded_median(rows, "x")
        for values in itertools.product(*[(b.lo, b.midpoint, b.hi) for b in bounds]):
            true = median_of(list(values))
            assert answer.contains(true), values

    def test_exact_rows_give_exact_median(self):
        rows = rows_of(Bound.exact(3), Bound.exact(1), Bound.exact(7))
        assert bounded_median(rows, "x") == Bound.exact(3)

    def test_empty_unbounded(self):
        assert bounded_median([], "x") == Bound.unbounded()


class TestChooseRefreshMedian:
    def test_no_refresh_if_tight(self):
        rows = rows_of(Bound(1, 1.5), Bound(2, 2.2), Bound(3, 3.1))
        plan = choose_refresh_median(rows, "x", 1.0)
        assert not plan.tids

    def test_guarantee_randomized(self):
        """After refreshing the plan at ANY realization, the median bound
        meets the budget."""
        rng = random.Random(77)
        for _ in range(25):
            bounds = [
                Bound(lo, lo + rng.uniform(0, 6))
                for lo in (rng.uniform(0, 10) for _ in range(7))
            ]
            rows = rows_of(*bounds)
            budget = rng.uniform(0.5, 4)
            plan = choose_refresh_median(rows, "x", budget)
            # Try several adversarial realizations for refreshed tuples.
            for _ in range(10):
                realized = []
                for row in rows:
                    b = row.bound("x")
                    if row.tid in plan.tids:
                        value = rng.uniform(b.lo, b.hi)
                        realized.append(Row(row.tid, {"x": Bound.exact(value)}))
                    else:
                        realized.append(row)
                answer = bounded_median(realized, "x")
                assert answer.width <= budget + 1e-6

    def test_cost_prefers_cheap(self):
        rows = rows_of(Bound(0, 10), Bound(0, 10), Bound(0, 10))
        costs = {1: 10.0, 2: 1.0, 3: 5.0}
        plan = choose_refresh_median(rows, "x", 5.0, lambda r: costs[r.tid])
        if plan.tids:
            assert 2 in plan.tids  # cheapest straddler goes first


class TestBoundedTopN:
    def test_nth_value(self):
        rows = rows_of(Bound(1, 2), Bound(5, 6), Bound(3, 9), Bound(0, 1))
        result = bounded_top_n(rows, "x", 2)
        # 2nd largest of lows (1,5,3,0) = 3; of highs (2,6,9,1) = 6.
        assert result.bound == Bound(3, 6)

    def test_containment_exhaustive(self):
        bounds = [Bound(0, 4), Bound(2, 6), Bound(3, 5), Bound(1, 9)]
        rows = rows_of(*bounds)
        for n in (1, 2, 3):
            result = bounded_top_n(rows, "x", n)
            for values in itertools.product(*[(b.lo, b.hi) for b in bounds]):
                true = sorted(values, reverse=True)[n - 1]
                assert result.bound.contains(true), (n, values)

    def test_membership_sets(self):
        rows = rows_of(Bound(10, 11), Bound(5, 6), Bound(0, 1))
        result = bounded_top_n(rows, "x", 1)
        assert result.certain_members == {1}
        assert result.possible_members == {1}
        result2 = bounded_top_n(rows, "x", 2)
        assert result2.certain_members == {1, 2}

    def test_overlapping_membership(self):
        rows = rows_of(Bound(0, 10), Bound(4, 6), Bound(5, 12))
        result = bounded_top_n(rows, "x", 1)
        assert result.certain_members == set()
        # Every tuple can be the max: e.g. t2=6 beats t1=0 and t3=5.
        assert result.possible_members == {1, 2, 3}

    def test_impossible_member_excluded(self):
        rows = rows_of(Bound(0, 2), Bound(5, 6), Bound(7, 9))
        result = bounded_top_n(rows, "x", 1)
        # t1's best (2) never beats t3's worst (7).
        assert 1 not in result.possible_members
        assert result.certain_members == {3}

    def test_membership_soundness_exhaustive(self):
        bounds = [Bound(0, 4), Bound(2, 6), Bound(3, 5)]
        rows = rows_of(*bounds)
        for n in (1, 2):
            result = bounded_top_n(rows, "x", n)
            for values in itertools.product(*[(b.lo, b.midpoint, b.hi) for b in bounds]):
                ranked = sorted(
                    range(len(values)), key=lambda i: (-values[i], i)
                )
                top = {i + 1 for i in ranked[:n]}
                # Certain members appear in every realization's top-n...
                for tid in result.certain_members:
                    assert tid in top or any(
                        values[tid - 1] == values[j - 1] for j in top
                    ), (n, values)
                # ...and nothing outside possible_members ever appears.
                for tid in top:
                    assert tid in result.possible_members, (n, values)

    def test_validation(self):
        rows = rows_of(Bound(0, 1))
        with pytest.raises(TrappError):
            bounded_top_n(rows, "x", 0)
        with pytest.raises(TrappError):
            bounded_top_n(rows, "x", 2)

    def test_n_equals_table_size(self):
        rows = rows_of(Bound(0, 1), Bound(5, 6))
        result = bounded_top_n(rows, "x", 2)
        assert result.certain_members == {1, 2}


class TestChooseRefreshTopN:
    def test_guarantee_randomized(self):
        rng = random.Random(88)
        for _ in range(25):
            bounds = [
                Bound(lo, lo + rng.uniform(0, 6))
                for lo in (rng.uniform(0, 10) for _ in range(6))
            ]
            rows = rows_of(*bounds)
            n = rng.randint(1, 3)
            budget = rng.uniform(0.5, 4)
            try:
                plan = next(top_n_steps(table_of(rows), n, "x", budget)).plan
            except StopIteration:  # the cached bound already fits
                plan = RefreshPlan.empty()
            for _ in range(10):
                realized = []
                for row in rows:
                    b = row.bound("x")
                    if row.tid in plan.tids:
                        value = rng.uniform(b.lo, b.hi)
                        realized.append(Row(row.tid, {"x": Bound.exact(value)}))
                    else:
                        realized.append(row)
                answer = bounded_top_n(realized, "x", n).bound
                assert answer.width <= budget + 1e-6
