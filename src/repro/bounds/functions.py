"""Time-parameterized bound functions (paper §3.2 and Appendix A).

A refresh at time ``T_r`` installs a pair of functions
``[L_i(T), H_i(T)]`` with ``L_i(T_r) = H_i(T_r) = V_i(T_r)``: the bound has
zero width at refresh time and widens as time passes, always containing the
master value until the next refresh.

The paper derives the *shape* from a random-walk update model: after ``T``
steps the walk's standard deviation grows as ``√T``, and Chebyshev's
inequality bounds the excursion by a multiple of ``√T`` at any fixed
confidence — so the recommended shape is ``f(T) = √T``, giving

    ``[ V(T_r) − W·√(T − T_r) ,  V(T_r) + W·√(T − T_r) ]``

with a per-object width parameter ``W`` chosen at run time.  Constant and
linear shapes are provided for comparison (compared in ``tests/golden/test_paper_claims.py``).

A bound function is encoded by just ``(V(T_r), W, T_r)`` — the two numbers
the paper notes a source must transmit per refresh, plus the refresh time
when message delay is not negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.core.bound import Bound
from repro.errors import BoundError

__all__ = [
    "BoundShape",
    "SqrtShape",
    "LinearShape",
    "ConstantShape",
    "BoundFunction",
    "BoundParameters",
    "endpoints",
    "SHAPES",
]


class BoundShape(Protocol):
    """The static shape ``f(T)``; monotonically non-decreasing, f(0) = 0."""

    name: str

    def __call__(self, elapsed: float) -> float:
        ...


@dataclass(frozen=True, slots=True)
class SqrtShape:
    """``f(T) = √T`` — the paper's recommended random-walk shape."""

    name: str = "sqrt"

    def __call__(self, elapsed: float) -> float:
        return math.sqrt(max(0.0, elapsed))


@dataclass(frozen=True, slots=True)
class LinearShape:
    """``f(T) = T`` — suits drift-dominated (trending) update patterns."""

    name: str = "linear"

    def __call__(self, elapsed: float) -> float:
        return max(0.0, elapsed)


@dataclass(frozen=True, slots=True)
class ConstantShape:
    """``f(T) = 1`` for T > 0 — a fixed-width bound (Quasi-copy style)."""

    name: str = "constant"

    def __call__(self, elapsed: float) -> float:
        return 1.0 if elapsed > 0 else 0.0


SHAPES: dict[str, BoundShape] = {
    "sqrt": SqrtShape(),
    "linear": LinearShape(),
    "constant": ConstantShape(),
}


def endpoints(
    value: float, width: float, refreshed_at: float, shape: BoundShape, now: float
) -> tuple[float, float]:
    """``(L(now), H(now))`` of the bound ``(V(T_r), W, T_r, f)`` — the one
    formula.

    Evaluation before the refresh time is a protocol violation; a
    negative half-width or a NaN endpoint is rejected here, so the write
    path's trigger check and the cache's per-cell writes need no
    :class:`Bound`.
    """
    if now < refreshed_at - 1e-12:
        raise BoundError(
            f"bound evaluated at {now} before its refresh time {refreshed_at}"
        )
    half_width = width * shape(now - refreshed_at)
    if half_width < 0:
        raise BoundError(f"half_width must be non-negative, got {half_width}")
    lo = float(value - half_width)
    hi = float(value + half_width)
    # One comparison covers both endpoints: a NaN makes it false.
    if not lo <= hi:
        raise BoundError("bound endpoints must not be NaN")
    return lo, hi


class BoundParameters:
    """Evaluation of anything holding ``value_at_refresh``,
    ``width_parameter``, ``refreshed_at`` and ``shape``: the frozen
    :class:`BoundFunction` a reader is handed, and the mutable tracker a
    source renews in place."""

    __slots__ = ()

    def endpoints_at(self, now: float) -> tuple[float, float]:
        """``(L(now), H(now))`` as plain floats (see :func:`endpoints`)."""
        return endpoints(
            self.value_at_refresh, self.width_parameter, self.refreshed_at,
            self.shape, now,
        )

    def at(self, now: float) -> Bound:
        """Evaluate ``[L(now), H(now)]`` as a :class:`Bound`."""
        return Bound(*self.endpoints_at(now))

    def half_width_at(self, now: float) -> float:
        """``W · f(now − T_r)`` without building a Bound."""
        return self.width_parameter * self.shape(max(0.0, now - self.refreshed_at))

    def contains(self, value: float, now: float) -> bool:
        """True iff ``value`` lies inside the bound at time ``now``."""
        lo, hi = self.endpoints_at(now)
        return lo <= value <= hi

    def encode(self) -> tuple[float, float, float]:
        """The wire encoding ``(V(T_r), W, T_r)`` (Appendix A)."""
        return (self.value_at_refresh, self.width_parameter, self.refreshed_at)


@dataclass(frozen=True, slots=True)
class BoundFunction(BoundParameters):
    """One installed bound: value-at-refresh, width parameter, shape, T_r.

    Immutable; built on demand for the readers that want one object (a
    cache's :meth:`~repro.replication.cache.DataCache.bound_function_of`,
    snapshot admission, tests).  Evaluation at the current time produces
    the plain :class:`Bound` the rest of the system consumes (the paper's
    convention of writing ``[L_i, H_i]`` for ``[L_i(T_c), H_i(T_c)]``).
    """

    value_at_refresh: float
    width_parameter: float
    refreshed_at: float
    shape: BoundShape = SqrtShape()

    def __post_init__(self) -> None:
        if self.width_parameter < 0:
            raise BoundError(
                f"width parameter must be non-negative, got {self.width_parameter}"
            )

    @staticmethod
    def decode(
        payload: tuple[float, float, float], shape: BoundShape = SqrtShape()
    ) -> "BoundFunction":
        value, width, refreshed_at = payload
        return BoundFunction(value, width, refreshed_at, shape)
