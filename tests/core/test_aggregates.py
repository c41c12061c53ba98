"""Unit tests for the bounded aggregate evaluators (§5 and §6)."""

import math

import pytest

from repro.core.aggregates import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    get_aggregate,
    loose_avg_bound,
    tight_avg_bound,
)
from repro.core.bound import Bound
from repro.errors import TrappError
from repro.predicates.batch import ColumnarClassification
from tests.protocol import bound_of, partitioned


def whole(spec, *bounds, column="x"):
    """The §5 answer over a table holding ``bounds`` on ``x``."""
    table, _ = partitioned(plus=bounds)
    return bound_of(spec, table, column)


def split(spec, plus=(), maybe=(), minus=(), column="x"):
    """The §6 answer over the given T+ / T? / T− bounds on ``x``."""
    table, pair = partitioned(plus, maybe, minus)
    return bound_of(spec, table, column, pair)


def gathered(plus=(), maybe=(), minus=()):
    """The T+ / T? endpoint arrays ``tight_avg_bound`` reads."""
    table, pair = partitioned(plus, maybe, minus)
    return ColumnarClassification.from_positions(table.columns, pair, "x")


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_aggregate("sum") is SUM
        assert get_aggregate("Min") is MIN

    def test_unknown_raises(self):
        with pytest.raises(TrappError):
            get_aggregate("PRODUCT")

    def test_needs_column_flags(self):
        assert not COUNT.needs_column
        for spec in (MIN, MAX, SUM, AVG):
            assert spec.needs_column


class TestMinNoPredicate:
    def test_basic(self):
        assert whole(MIN, Bound(2, 4), Bound(1, 9), Bound(5, 6)) == Bound(1, 4)

    def test_exact_values(self):
        assert whole(MIN, Bound.exact(3), Bound.exact(1)) == Bound.exact(1)

    def test_empty_table(self):
        assert whole(MIN) == Bound(math.inf, math.inf)

    def test_missing_column_raises(self):
        with pytest.raises(TrappError):
            whole(MIN, column=None)


class TestMaxNoPredicate:
    def test_basic(self):
        assert whole(MAX, Bound(2, 4), Bound(1, 9), Bound(5, 6)) == Bound(5, 9)

    def test_empty_table(self):
        assert whole(MAX) == Bound(-math.inf, -math.inf)


class TestSumNoPredicate:
    def test_basic(self):
        assert whole(SUM, Bound(1, 2), Bound(-3, 1), Bound.exact(4)) == Bound(2, 7)

    def test_empty_is_exact_zero(self):
        assert whole(SUM) == Bound.exact(0)


class TestCountNoPredicate:
    def test_always_exact_cardinality(self):
        assert whole(COUNT, Bound(0, 100), Bound(5, 5), column=None) == Bound.exact(2)
        assert whole(COUNT, column=None) == Bound.exact(0)


class TestAvgNoPredicate:
    def test_basic(self):
        assert whole(AVG, Bound(0, 2), Bound(4, 6)) == Bound(2, 4)

    def test_empty_is_unbounded(self):
        assert whole(AVG) == Bound.unbounded()


class TestMinWithPredicate:
    def test_lower_uses_plus_and_maybe(self):
        assert split(MIN, plus=[Bound(5, 8)], maybe=[Bound(1, 10)]) == Bound(1, 8)

    def test_empty_plus_gives_infinite_upper(self):
        bound = split(MIN, maybe=[Bound(1, 3)])
        assert bound.lo == 1
        assert bound.hi == math.inf

    def test_minus_ignored(self):
        assert split(MIN, plus=[Bound(5, 8)], minus=[Bound(-100, -50)]) == Bound(5, 8)


class TestMaxWithPredicate:
    def test_symmetry(self):
        assert split(MAX, plus=[Bound(5, 8)], maybe=[Bound(1, 10)]) == Bound(5, 10)

    def test_empty_plus_gives_infinite_lower(self):
        bound = split(MAX, maybe=[Bound(1, 3)])
        assert bound.lo == -math.inf
        assert bound.hi == 3


class TestSumWithPredicate:
    def test_maybe_bounds_extended_to_zero(self):
        # maybe contributes [0, 8]: it might not satisfy the predicate.
        assert split(SUM, plus=[Bound(1, 2)], maybe=[Bound(3, 8)]) == Bound(1, 10)

    def test_negative_maybe_values(self):
        assert split(SUM, plus=[Bound(1, 2)], maybe=[Bound(-8, -3)]) == Bound(-7, 2)

    def test_maybe_straddling_zero(self):
        assert split(SUM, maybe=[Bound(-4, 6)]) == Bound(-4, 6)

    def test_all_minus_is_exact_zero(self):
        assert split(SUM, minus=[Bound(1, 2), Bound(3, 4)]) == Bound.exact(0)


class TestCountWithPredicate:
    def test_formula(self):
        answer = split(
            COUNT,
            plus=[Bound(1, 1)] * 2,
            maybe=[Bound(0, 9)] * 3,
            minus=[Bound(0, 1)],
            column=None,
        )
        assert answer == Bound(2, 5)


class TestAvgWithPredicate:
    def test_tight_bound_paper_example(self):
        # Appendix E worked example: T+ lows {5, 9}, T? lows {2, 4, 8, 12}.
        bound = tight_avg_bound(
            gathered(
                plus=[Bound(5, 7), Bound(9, 11)],
                maybe=[Bound(2, 4), Bound(4, 6), Bound(8, 11), Bound(12, 16)],
            )
        )
        assert bound.lo == pytest.approx(5.0)
        assert bound.hi == pytest.approx(34 / 3)

    def test_no_plus_no_maybe_unbounded(self):
        assert tight_avg_bound(gathered()) == Bound.unbounded()

    def test_only_maybe_gives_hull(self):
        assert tight_avg_bound(gathered(maybe=[Bound(1, 3), Bound(2, 9)])) == Bound(1, 9)

    def test_registry_uses_tight(self):
        classes = dict(plus=[Bound(5, 7)], maybe=[Bound(1, 2)])
        assert split(AVG, **classes) == tight_avg_bound(gathered(**classes))

    def test_loose_bound_contains_tight_randomized(self):
        import random

        rng = random.Random(5)

        for _ in range(30):
            plus = [
                Bound(lo, lo + rng.uniform(0, 5))
                for lo in (rng.uniform(-10, 10) for _ in range(rng.randint(1, 4)))
            ]
            maybe = [
                Bound(lo, lo + rng.uniform(0, 5))
                for lo in (rng.uniform(-10, 10) for _ in range(rng.randint(0, 4)))
            ]
            tight = tight_avg_bound(gathered(plus, maybe))
            loose = loose_avg_bound(
                split(SUM, plus, maybe), split(COUNT, plus, maybe, column=None)
            )
            assert loose.lo <= tight.lo + 1e-9
            assert loose.hi >= tight.hi - 1e-9

    def test_loose_bound_zero_count_possible(self):
        loose = loose_avg_bound(Bound(0, 10), Bound(0, 2))
        # min nonempty count is 1; max is 2.
        assert loose == Bound(0, 10)

    def test_loose_bound_empty(self):
        assert loose_avg_bound(Bound(0, 0), Bound(0, 0)) == Bound.unbounded()
