"""Adaptive bound-width selection (paper Appendix A).

Choosing the width parameter ``W_i`` trades two refresh pressures against
each other: a *narrow* bound is precise but the master value escapes it
often (value-initiated refreshes), while a *wide* bound rarely needs
value-initiated refreshes but forces queries to refresh for precision
(query-initiated refreshes).

The paper sketches a feedback controller: start from some ``W``; widen it
multiplicatively on every value-initiated refresh (the bound proved too
narrow) and shrink it on every query-initiated refresh (the bound proved
too wide for consumers).  :class:`AdaptiveWidthController` implements that
strategy with configurable gains and clamps; :class:`FixedWidthPolicy`
is the static baseline the width-policy ablation compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import BoundError

__all__ = ["WidthPolicy", "FixedWidthPolicy", "AdaptiveWidthController"]


class WidthPolicy(Protocol):
    """Per-object policy producing the next width parameter at refresh time."""

    def next_width(self) -> float:
        """The width parameter to install with the next refresh."""
        ...

    def on_value_initiated(self) -> None:
        """Feedback: the master value escaped the bound (too narrow)."""
        ...

    def on_query_initiated(self) -> None:
        """Feedback: a query had to refresh for precision (too wide)."""
        ...


@dataclass(slots=True)
class FixedWidthPolicy:
    """A static width parameter (the Quasi-copies regime: set once by an
    administrator, never adapted)."""

    width: float

    def __post_init__(self) -> None:
        if self.width < 0:
            raise BoundError(f"width must be non-negative, got {self.width}")

    def next_width(self) -> float:
        return self.width

    def on_value_initiated(self) -> None:  # noqa: D102 - feedback ignored
        pass

    def on_query_initiated(self) -> None:  # noqa: D102 - feedback ignored
        pass


@dataclass(slots=True)
class AdaptiveWidthController:
    """Multiplicative-increase / multiplicative-decrease width adaptation.

    ``grow`` (> 1) multiplies the width after a value-initiated refresh;
    ``shrink`` (< 1) multiplies it after a query-initiated refresh.  The
    width is clamped to ``[min_width, max_width]`` so a burst of one signal
    cannot drive it to zero or infinity.  Counters are exposed so
    experiments can report the refresh mix.
    """

    initial_width: float = 1.0
    grow: float = 2.0
    shrink: float = 0.7
    min_width: float = 1e-6
    max_width: float = 1e6
    _width: float = field(init=False, default=0.0)
    value_initiated_count: int = field(init=False, default=0)
    query_initiated_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.initial_width <= 0:
            raise BoundError("initial width must be positive")
        if self.grow <= 1.0:
            raise BoundError(f"grow factor must exceed 1, got {self.grow}")
        if not 0.0 < self.shrink < 1.0:
            raise BoundError(f"shrink factor must lie in (0, 1), got {self.shrink}")
        if not 0 < self.min_width <= self.max_width:
            raise BoundError("width clamps must satisfy 0 < min <= max")
        self._width = min(max(self.initial_width, self.min_width), self.max_width)

    def next_width(self) -> float:
        return self._width

    def on_value_initiated(self) -> None:
        self.value_initiated_count += 1
        self._width = min(self._width * self.grow, self.max_width)

    def on_query_initiated(self) -> None:
        self.query_initiated_count += 1
        self._width = max(self._width * self.shrink, self.min_width)

    @property
    def total_refreshes(self) -> int:
        return self.value_initiated_count + self.query_initiated_count
