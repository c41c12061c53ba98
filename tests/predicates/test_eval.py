"""Unit tests for exact and three-valued predicate evaluation."""

import pytest

from repro.core.bound import Bound
from repro.errors import PredicateTypeError
from repro.predicates.parser import parse_predicate
from repro.storage.row import Row
from tests.oracle.row_eval import Trilean, evaluate_exact, evaluate_trilean


def row(**values):
    return Row(1, values)


class TestExactEvaluation:
    def test_numeric_comparisons(self):
        r = row(a=5.0, b=3.0)
        assert evaluate_exact(parse_predicate("a > b"), r)
        assert not evaluate_exact(parse_predicate("a < b"), r)
        assert evaluate_exact(parse_predicate("a >= 5"), r)
        assert evaluate_exact(parse_predicate("a <= 5"), r)
        assert evaluate_exact(parse_predicate("a = 5"), r)
        assert evaluate_exact(parse_predicate("a != 4"), r)

    def test_boolean_connectives(self):
        r = row(a=5.0)
        assert evaluate_exact(parse_predicate("a > 0 AND a < 10"), r)
        assert evaluate_exact(parse_predicate("a < 0 OR a > 3"), r)
        assert evaluate_exact(parse_predicate("NOT a < 0"), r)
        assert evaluate_exact(parse_predicate("TRUE"), r)

    def test_string_equality(self):
        r = row(ticker="IBM")
        assert evaluate_exact(parse_predicate("ticker = 'IBM'"), r)
        assert evaluate_exact(parse_predicate("ticker != 'AAPL'"), r)

    def test_string_ordering_rejected(self):
        with pytest.raises(PredicateTypeError):
            evaluate_exact(parse_predicate("ticker < 'IBM'"), row(ticker="A"))

    def test_string_number_mix_rejected(self):
        with pytest.raises(PredicateTypeError):
            evaluate_exact(parse_predicate("ticker = 5"), row(ticker="A"))

    def test_wide_bound_rejected(self):
        with pytest.raises(PredicateTypeError):
            evaluate_exact(parse_predicate("a > 0"), row(a=Bound(0, 1)))

    def test_exact_bound_accepted(self):
        assert evaluate_exact(parse_predicate("a > 0"), row(a=Bound.exact(1)))

    def test_linear_transform(self):
        r = row(a=5.0)
        assert evaluate_exact(parse_predicate("2 * a + 1 = 11"), r)


class TestTrileanEvaluation:
    def test_certain_true(self):
        r = row(a=Bound(6, 8))
        assert evaluate_trilean(parse_predicate("a > 5"), r) is Trilean.TRUE

    def test_certain_false(self):
        r = row(a=Bound(0, 4))
        assert evaluate_trilean(parse_predicate("a > 5"), r) is Trilean.FALSE

    def test_maybe(self):
        r = row(a=Bound(3, 8))
        assert evaluate_trilean(parse_predicate("a > 5"), r) is Trilean.MAYBE

    def test_conjunction_combines(self):
        r = row(a=Bound(6, 8), b=Bound(0, 10))
        assert evaluate_trilean(parse_predicate("a > 5 AND b > 5"), r) is Trilean.MAYBE
        assert (
            evaluate_trilean(parse_predicate("a > 5 AND b > 100"), r)
            is Trilean.FALSE
        )

    def test_negation(self):
        r = row(a=Bound(3, 8))
        assert evaluate_trilean(parse_predicate("NOT a > 5"), r) is Trilean.MAYBE
        r2 = row(a=Bound(6, 8))
        assert evaluate_trilean(parse_predicate("NOT a > 5"), r2) is Trilean.FALSE

    def test_plain_numbers_are_exact(self):
        r = row(a=7.0)
        assert evaluate_trilean(parse_predicate("a > 5"), r) is Trilean.TRUE

    def test_column_to_column(self):
        r = row(a=Bound(0, 3), b=Bound(5, 9))
        assert evaluate_trilean(parse_predicate("a < b"), r) is Trilean.TRUE
        r2 = row(a=Bound(0, 6), b=Bound(5, 9))
        assert evaluate_trilean(parse_predicate("a < b"), r2) is Trilean.MAYBE

    def test_strings_remain_two_valued(self):
        r = row(ticker="IBM")
        assert evaluate_trilean(parse_predicate("ticker = 'IBM'"), r) is Trilean.TRUE
        assert (
            evaluate_trilean(parse_predicate("ticker = 'AAPL'"), r) is Trilean.FALSE
        )

    def test_linear_transform_over_bound(self):
        r = row(a=Bound(2, 3))
        # 2a + 1 in [5, 7]: > 4 certain, > 6 maybe.
        assert evaluate_trilean(parse_predicate("2 * a + 1 > 4"), r) is Trilean.TRUE
        assert evaluate_trilean(parse_predicate("2 * a + 1 > 6"), r) is Trilean.MAYBE
