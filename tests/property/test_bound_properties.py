"""Property-based tests for Bound: interval arithmetic soundness.

The fundamental property of interval arithmetic: for any values inside the
operand intervals, the exact result of the operation lies inside the
result interval.
"""

from hypothesis import given, strategies as st

from repro.bounds.functions import SHAPES, BoundFunction
from repro.core.bound import Bound

from tests.oracle.row_eval import (
    Trilean,
    cmp_eq,
    cmp_ge,
    cmp_gt,
    cmp_le,
    cmp_lt,
    cmp_ne,
)
from tests.property.strategies import bounds, finite, widths


def value_in(draw_fraction: float, bound: Bound) -> float:
    return bound.lo + draw_fraction * (bound.hi - bound.lo)


fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(bounds(), bounds(), fractions, fractions)
def test_addition_containment(a, b, fa, fb):
    va, vb = value_in(fa, a), value_in(fb, b)
    assert (a + b).contains(va + vb)


@given(bounds(), bounds(), fractions, fractions)
def test_subtraction_containment(a, b, fa, fb):
    va, vb = value_in(fa, a), value_in(fb, b)
    result = a - b
    assert result.lo - 1e-6 <= va - vb <= result.hi + 1e-6


@given(bounds(), bounds(), fractions, fractions)
def test_multiplication_containment(a, b, fa, fb):
    va, vb = value_in(fa, a), value_in(fb, b)
    result = a * b
    tolerance = 1e-6 * (1 + abs(va * vb))
    assert result.lo - tolerance <= va * vb <= result.hi + tolerance


@given(bounds(), fractions)
def test_negation_containment(a, fa):
    va = value_in(fa, a)
    assert (-a).contains(-va)


@given(bounds())
def test_hull_contains_both(a):
    b = a.shift(5.0)
    h = a.hull(b)
    assert h.contains_bound(a)
    assert h.contains_bound(b)


@given(bounds(), bounds())
def test_overlap_symmetry(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(bounds(), bounds())
def test_intersection_inside_operands(a, b):
    if a.overlaps(b):
        i = a.intersect(b)
        assert a.contains_bound(i)
        assert b.contains_bound(i)


@given(bounds())
def test_extend_to_zero_contains_zero_and_original(a):
    e = a.extend_to_zero()
    assert e.contains(0.0)
    assert e.contains_bound(a)


@given(bounds(), bounds(), fractions, fractions)
def test_trilean_lt_soundness(a, b, fa, fb):
    va, vb = value_in(fa, a), value_in(fb, b)
    verdict = cmp_lt(a, b)
    if verdict is Trilean.TRUE:
        assert va < vb
    elif verdict is Trilean.FALSE:
        assert not (va < vb)


@given(bounds(), bounds(), fractions, fractions)
def test_trilean_le_soundness(a, b, fa, fb):
    va, vb = value_in(fa, a), value_in(fb, b)
    verdict = cmp_le(a, b)
    if verdict is Trilean.TRUE:
        assert va <= vb
    elif verdict is Trilean.FALSE:
        assert not (va <= vb)


@given(bounds(), bounds())
def test_trilean_negation_duality(a, b):
    assert cmp_ge(a, b) is ~cmp_lt(a, b)
    assert cmp_gt(a, b) is ~cmp_le(a, b)
    assert cmp_ne(a, b) is ~cmp_eq(a, b)


@given(bounds(), st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_scale_containment(a, k):
    mid = a.midpoint
    assert a.scale(k).contains(mid * k)


@given(bounds(), finite)
def test_clamp_lands_inside(a, v):
    assert a.contains(a.clamp(v))


@given(finite, widths, finite, widths, st.sampled_from(sorted(SHAPES)), finite)
def test_endpoints_at_is_the_bound_at(value, width, refreshed_at, elapsed, shape, probe):
    function = BoundFunction(value, width, refreshed_at, SHAPES[shape])
    now = refreshed_at + elapsed
    evaluated = function.at(now)
    # What ``at`` computed before it was defined on ``endpoints_at``.
    assert evaluated == Bound.around(value, width * SHAPES[shape](now - refreshed_at))
    # Bit for bit: == on floats would let -0.0 pass for 0.0.
    assert [e.hex() for e in function.endpoints_at(now)] == [
        evaluated.lo.hex(),
        evaluated.hi.hex(),
    ]
    assert function.contains(probe, now) == evaluated.contains(probe)
