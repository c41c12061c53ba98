"""Closed real intervals ("bounds") — the fundamental TRAPP/AG data type.

A TRAPP cache stores, for each replicated data object ``O_i``, a *bound*
``[L_i, H_i]`` that is guaranteed to contain the current master value
``V_i``.  This module provides :class:`Bound`, an immutable closed interval
over the extended reals, together with the interval arithmetic needed by
the bounded aggregate evaluators (sum, negation, scaling, division by a
positive count, hull/intersection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.errors import BoundError

Number = Union[int, float]

__all__ = ["Bound", "exact", "hull", "intersect_all"]


@dataclass(frozen=True, slots=True)
class Bound:
    """An immutable closed interval ``[lo, hi]`` over the extended reals.

    ``lo = -inf`` / ``hi = +inf`` model completely unknown values; a
    zero-width bound (``lo == hi``) models an exactly-known value, which is
    what a tuple's bound collapses to immediately after a refresh.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise BoundError("bound endpoints must not be NaN")
        if lo > hi:
            raise BoundError(f"bound lower endpoint {lo} exceeds upper {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def exact(value: Number) -> "Bound":
        """The zero-width bound ``[value, value]``."""
        return Bound(value, value)

    @staticmethod
    def unbounded() -> "Bound":
        """The bound ``[-inf, +inf]`` (nothing known about the value)."""
        return Bound(-math.inf, math.inf)

    @staticmethod
    def around(center: Number, half_width: Number) -> "Bound":
        """The symmetric bound ``[center - half_width, center + half_width]``."""
        if half_width < 0:
            raise BoundError(f"half_width must be non-negative, got {half_width}")
        return Bound(center - half_width, center + half_width)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """``hi - lo``; the paper's measure of imprecision.

        Defined as 0 for degenerate infinite points (``[+inf, +inf]``,
        produced by empty-set aggregates) where IEEE subtraction would give
        NaN.
        """
        if self.lo == self.hi:
            return 0.0
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """The center of the interval (undefined for half-infinite bounds)."""
        return (self.lo + self.hi) / 2.0

    @property
    def is_exact(self) -> bool:
        """True iff the bound pins down a single value."""
        return self.lo == self.hi

    @property
    def is_finite(self) -> bool:
        """True iff both endpoints are finite."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, value: Number) -> bool:
        """True iff ``value`` is a possible realization of this bound."""
        return self.lo <= value <= self.hi

    def contains_bound(self, other: "Bound") -> bool:
        """True iff every realization of ``other`` lies inside ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Bound") -> bool:
        """True iff the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def clamp(self, value: Number) -> float:
        """Project ``value`` onto the interval."""
        return min(max(float(value), self.lo), self.hi)

    # ------------------------------------------------------------------
    # Interval arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Bound | Number") -> "Bound":
        other = _as_bound(other)
        return Bound(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Bound":
        return Bound(-self.hi, -self.lo)

    def __sub__(self, other: "Bound | Number") -> "Bound":
        return self + (-_as_bound(other))

    def __rsub__(self, other: "Bound | Number") -> "Bound":
        return _as_bound(other) + (-self)

    def __mul__(self, other: "Bound | Number") -> "Bound":
        other = _as_bound(other)
        candidates = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        # 0 * inf is NaN under IEEE; in interval arithmetic it is 0.
        candidates = [0.0 if math.isnan(c) else c for c in candidates]
        return Bound(min(candidates), max(candidates))

    __rmul__ = __mul__

    def __truediv__(self, other: "Bound | Number") -> "Bound":
        other = _as_bound(other)
        if other.lo <= 0 <= other.hi:
            raise BoundError(f"division by interval {other} containing zero")
        return self * Bound(1.0 / other.hi, 1.0 / other.lo)

    def scale(self, factor: Number) -> "Bound":
        """Multiply both endpoints by a scalar, keeping orientation."""
        return self * Bound.exact(factor)

    def shift(self, offset: Number) -> "Bound":
        """Translate the interval by a scalar."""
        return Bound(self.lo + offset, self.hi + offset)

    def widen(self, amount: Number) -> "Bound":
        """Symmetrically expand the interval by ``amount`` on each side."""
        if amount < 0:
            raise BoundError(f"widen amount must be non-negative, got {amount}")
        return Bound(self.lo - amount, self.hi + amount)

    def extend_to_zero(self) -> "Bound":
        """The smallest interval containing both ``self`` and 0.

        Used by the SUM-with-predicate optimizer: a tuple in ``T?`` may turn
        out not to satisfy the predicate, contributing 0 to the sum, so its
        effective bound must be stretched to include zero (paper §6.2).
        """
        return Bound(min(self.lo, 0.0), max(self.hi, 0.0))

    def intersect(self, other: "Bound") -> "Bound":
        """The intersection of two overlapping intervals.

        Raises :class:`BoundError` when the intervals are disjoint.
        """
        if not self.overlaps(other):
            raise BoundError(f"intervals {self} and {other} are disjoint")
        return Bound(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Bound") -> "Bound":
        """The smallest interval containing both operands."""
        return Bound(min(self.lo, other.lo), max(self.hi, other.hi))

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __str__(self) -> str:
        return f"[{_fmt(self.lo)}, {_fmt(self.hi)}]"

    def __repr__(self) -> str:
        return f"Bound({_fmt(self.lo)}, {_fmt(self.hi)})"


def _fmt(x: float) -> str:
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return f"{x:g}"


def _as_bound(value: "Bound | Number") -> Bound:
    if isinstance(value, Bound):
        return value
    return Bound.exact(value)


def exact(value: Number) -> Bound:
    """Module-level alias for :meth:`Bound.exact`."""
    return Bound.exact(value)


def hull(bounds: Iterable[Bound]) -> Bound:
    """The smallest interval containing every bound in ``bounds``.

    The hull of an empty collection is defined as the empty-aggregate
    convention from the paper (min of nothing = +inf, max = -inf), which we
    surface as a :class:`BoundError` because ``[+inf, -inf]`` is not a valid
    interval; callers handle empty inputs explicitly.
    """
    it = iter(bounds)
    try:
        acc = next(it)
    except StopIteration:
        raise BoundError("hull of an empty collection is undefined") from None
    for b in it:
        acc = acc.hull(b)
    return acc


def intersect_all(bounds: Iterable[Bound]) -> Bound:
    """The intersection of every bound in ``bounds`` (must be non-empty)."""
    it = iter(bounds)
    try:
        acc = next(it)
    except StopIteration:
        raise BoundError("intersection of an empty collection is undefined") from None
    for b in it:
        acc = acc.intersect(b)
    return acc
