"""Unit tests for the Bound interval type."""

import math

import pytest

from repro.core.bound import Bound, exact, hull, intersect_all
from repro.errors import BoundError
from tests.oracle.row_eval import (
    Trilean,
    cmp_eq,
    cmp_ge,
    cmp_gt,
    cmp_le,
    cmp_lt,
    cmp_ne,
)


class TestConstruction:
    def test_basic(self):
        b = Bound(1.0, 2.0)
        assert b.lo == 1.0
        assert b.hi == 2.0

    def test_integer_endpoints_coerced(self):
        b = Bound(1, 2)
        assert isinstance(b.lo, float)
        assert isinstance(b.hi, float)

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(BoundError):
            Bound(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(BoundError):
            Bound(math.nan, 1.0)
        with pytest.raises(BoundError):
            Bound(0.0, math.nan)

    def test_exact(self):
        b = Bound.exact(5)
        assert b.is_exact
        assert b.lo == b.hi == 5.0
        assert exact(5) == b

    def test_unbounded(self):
        b = Bound.unbounded()
        assert b.lo == -math.inf
        assert b.hi == math.inf
        assert not b.is_finite

    def test_around(self):
        b = Bound.around(10, 3)
        assert b == Bound(7, 13)

    def test_around_negative_half_width_rejected(self):
        with pytest.raises(BoundError):
            Bound.around(0, -1)

    def test_frozen(self):
        b = Bound(0, 1)
        with pytest.raises(AttributeError):
            b.lo = 5  # type: ignore[misc]


class TestProperties:
    def test_width(self):
        assert Bound(2, 4).width == 2.0
        assert Bound.exact(7).width == 0.0

    def test_width_of_degenerate_infinite_point(self):
        assert Bound(math.inf, math.inf).width == 0.0
        assert Bound(-math.inf, -math.inf).width == 0.0

    def test_width_half_infinite(self):
        assert Bound(0, math.inf).width == math.inf

    def test_midpoint(self):
        assert Bound(2, 4).midpoint == 3.0

    def test_contains(self):
        b = Bound(1, 3)
        assert b.contains(1)
        assert b.contains(3)
        assert b.contains(2)
        assert not b.contains(0.999)
        assert not b.contains(3.001)

    def test_contains_bound(self):
        assert Bound(0, 10).contains_bound(Bound(2, 3))
        assert Bound(0, 10).contains_bound(Bound(0, 10))
        assert not Bound(0, 10).contains_bound(Bound(-1, 3))

    def test_overlaps(self):
        assert Bound(0, 2).overlaps(Bound(2, 4))
        assert Bound(0, 2).overlaps(Bound(1, 1.5))
        assert not Bound(0, 2).overlaps(Bound(2.01, 4))

    def test_clamp(self):
        b = Bound(1, 3)
        assert b.clamp(0) == 1
        assert b.clamp(5) == 3
        assert b.clamp(2) == 2


class TestArithmetic:
    def test_add(self):
        assert Bound(1, 2) + Bound(10, 20) == Bound(11, 22)
        assert Bound(1, 2) + 5 == Bound(6, 7)
        assert 5 + Bound(1, 2) == Bound(6, 7)

    def test_neg(self):
        assert -Bound(1, 2) == Bound(-2, -1)

    def test_sub(self):
        assert Bound(5, 7) - Bound(1, 2) == Bound(3, 6)
        assert Bound(5, 7) - 1 == Bound(4, 6)
        assert 10 - Bound(1, 2) == Bound(8, 9)

    def test_mul_positive(self):
        assert Bound(1, 2) * Bound(3, 4) == Bound(3, 8)

    def test_mul_spanning_zero(self):
        assert Bound(-1, 2) * Bound(3, 4) == Bound(-4, 8)

    def test_mul_by_negative_scalar(self):
        assert Bound(1, 2) * -3 == Bound(-6, -3)

    def test_mul_infinite_by_zero_width(self):
        # Interval convention: 0 * inf = 0, not NaN.
        assert Bound(0, math.inf) * Bound.exact(0) == Bound.exact(0)

    def test_div(self):
        assert Bound(4, 8) / Bound(2, 4) == Bound(1, 4)
        assert Bound(4, 8) / 2 == Bound(2, 4)

    def test_div_by_zero_straddling_rejected(self):
        with pytest.raises(BoundError):
            Bound(1, 2) / Bound(-1, 1)

    def test_scale_and_shift(self):
        assert Bound(1, 2).scale(3) == Bound(3, 6)
        assert Bound(1, 2).scale(-1) == Bound(-2, -1)
        assert Bound(1, 2).shift(10) == Bound(11, 12)

    def test_widen(self):
        assert Bound(1, 2).widen(0.5) == Bound(0.5, 2.5)
        with pytest.raises(BoundError):
            Bound(1, 2).widen(-1)

    def test_extend_to_zero(self):
        assert Bound(3, 8).extend_to_zero() == Bound(0, 8)
        assert Bound(-8, -3).extend_to_zero() == Bound(-8, 0)
        assert Bound(-2, 5).extend_to_zero() == Bound(-2, 5)

    def test_intersect(self):
        assert Bound(0, 5).intersect(Bound(3, 9)) == Bound(3, 5)
        with pytest.raises(BoundError):
            Bound(0, 1).intersect(Bound(2, 3))

    def test_hull(self):
        assert Bound(0, 1).hull(Bound(5, 6)) == Bound(0, 6)

    def test_module_hull(self):
        assert hull([Bound(0, 1), Bound(-3, 0.5), Bound(2, 2)]) == Bound(-3, 2)
        with pytest.raises(BoundError):
            hull([])

    def test_module_intersect_all(self):
        assert intersect_all([Bound(0, 10), Bound(2, 8), Bound(4, 12)]) == Bound(4, 8)
        with pytest.raises(BoundError):
            intersect_all([])


class TestComparisons:
    def test_lt_certain(self):
        assert cmp_lt(Bound(1, 2), Bound(3, 4)) is Trilean.TRUE

    def test_lt_impossible(self):
        assert cmp_lt(Bound(3, 4), Bound(1, 2)) is Trilean.FALSE

    def test_lt_maybe(self):
        assert cmp_lt(Bound(1, 3), Bound(2, 4)) is Trilean.MAYBE

    def test_lt_touching_endpoints(self):
        # [1,2] < [2,3]: value pairs (2, 2) violate, (1, 3) satisfy.
        assert cmp_lt(Bound(1, 2), Bound(2, 3)) is Trilean.MAYBE

    def test_le_touching_endpoints_certain(self):
        assert cmp_le(Bound(1, 2), Bound(2, 3)) is Trilean.TRUE

    def test_le_false(self):
        assert cmp_le(Bound(5, 6), Bound(1, 2)) is Trilean.FALSE

    def test_gt_ge_symmetry(self):
        a, b = Bound(1, 3), Bound(2, 4)
        assert cmp_gt(a, b) is cmp_lt(b, a)
        assert cmp_ge(a, b) is cmp_le(b, a)

    def test_eq(self):
        assert cmp_eq(Bound.exact(2), Bound.exact(2)) is Trilean.TRUE
        assert cmp_eq(Bound(1, 3), Bound(2, 4)) is Trilean.MAYBE
        assert cmp_eq(Bound(1, 2), Bound(3, 4)) is Trilean.FALSE

    def test_eq_same_wide_interval_is_maybe(self):
        # Two unknown values in the same range need not be equal.
        b = Bound(1, 3)
        assert cmp_eq(b, b) is Trilean.MAYBE

    def test_ne(self):
        assert cmp_ne(Bound(1, 2), Bound(3, 4)) is Trilean.TRUE
        assert cmp_ne(Bound.exact(2), Bound.exact(2)) is Trilean.FALSE
        assert cmp_ne(Bound(1, 3), Bound(2, 4)) is Trilean.MAYBE

    def test_comparison_with_scalar(self):
        assert cmp_lt(Bound(1, 2), 5) is Trilean.TRUE
        assert cmp_gt(Bound(1, 2), 0) is Trilean.TRUE
        assert cmp_lt(Bound(1, 3), 2) is Trilean.MAYBE


class TestTrilean:
    def test_invert(self):
        assert ~Trilean.TRUE is Trilean.FALSE
        assert ~Trilean.FALSE is Trilean.TRUE
        assert ~Trilean.MAYBE is Trilean.MAYBE

    def test_and(self):
        assert (Trilean.TRUE & Trilean.TRUE) is Trilean.TRUE
        assert (Trilean.TRUE & Trilean.MAYBE) is Trilean.MAYBE
        assert (Trilean.FALSE & Trilean.MAYBE) is Trilean.FALSE

    def test_or(self):
        assert (Trilean.FALSE | Trilean.FALSE) is Trilean.FALSE
        assert (Trilean.MAYBE | Trilean.FALSE) is Trilean.MAYBE
        assert (Trilean.TRUE | Trilean.MAYBE) is Trilean.TRUE

    def test_predicates(self):
        assert Trilean.TRUE.is_certain
        assert not Trilean.MAYBE.is_certain
        assert Trilean.MAYBE.is_possible
        assert not Trilean.FALSE.is_possible

    def test_of(self):
        assert Trilean.of(True) is Trilean.TRUE
        assert Trilean.of(False) is Trilean.FALSE


class TestDunder:
    def test_iter_unpacking(self):
        lo, hi = Bound(1, 2)
        assert (lo, hi) == (1.0, 2.0)

    def test_str(self):
        assert str(Bound(2, 4)) == "[2, 4]"
        assert str(Bound(2.5, 4.25)) == "[2.5, 4.25]"

    def test_repr(self):
        assert repr(Bound(2, 4)) == "Bound(2, 4)"
