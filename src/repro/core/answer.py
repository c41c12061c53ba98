"""Bounded answers returned by TRAPP/AG queries.

A *bounded answer* is a pair ``[L_A, H_A]`` guaranteed to contain the
precise answer (paper §1.3).  :class:`BoundedAnswer` wraps the interval
with the execution metadata a caller of the three-step executor wants:
which tuples were refreshed, what the refresh cost was, and whether the
precision constraint was met.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bound import Bound
from repro.core.constraints import width_within

__all__ = ["BoundedAnswer"]


@dataclass(frozen=True, slots=True)
class BoundedAnswer:
    """The result of executing a TRAPP/AG aggregation query."""

    #: The guaranteed interval containing the precise answer.
    bound: Bound
    #: Tuple ids refreshed from sources while answering (empty when the
    #: cached bounds alone met the constraint).
    refreshed: frozenset[int] = frozenset()
    #: Total cost of those refreshes under the query's cost model.
    refresh_cost: float = 0.0
    #: The answer computed from cached data alone (step 1 of execution),
    #: useful for judging how much the refreshes tightened the answer.
    initial_bound: Bound | None = None
    #: True when a planned refresh ultimately failed and the answer was
    #: served from the current (wider than requested, but still correct)
    #: bounds.  The interval is still guaranteed to contain the precise
    #: answer — only the precision constraint was sacrificed.
    degraded: bool = False
    #: Sources that could not be contacted while answering (empty unless
    #: some planned tuples went unrefreshed).
    unreachable_sources: tuple[str, ...] = ()
    #: Fraction of (tuple, predicate-leaf) decisions step 1 had to
    #: materialize from endpoint-index windows, ``None`` when the dense
    #: classifier ran (index-ineligible predicate) or none did (no
    #: predicate).
    #: ``0.0`` means every tuple was decided wholesale by binary search.
    index_window_fraction: float | None = None

    @property
    def width(self) -> float:
        """The answer's imprecision ``H_A - L_A``."""
        return self.bound.width

    @property
    def is_exact(self) -> bool:
        return self.bound.is_exact

    @property
    def value(self) -> float:
        """The exact answer, when the bound has collapsed to a point."""
        if not self.bound.is_exact:
            raise ValueError(
                f"answer {self.bound} is not exact; read .bound instead"
            )
        return self.bound.lo

    def meets(self, max_width: float) -> bool:
        """True iff the answer satisfies ``H_A - L_A <= max_width``.

        Uses the same :func:`~repro.core.constraints.width_within` slack
        as the executor, so an answer the executor certified never
        reports itself as violating its own constraint.
        """
        return width_within(self.width, max_width)

    def __str__(self) -> str:
        parts = [str(self.bound)]
        if self.refreshed:
            parts.append(
                f"(refreshed {len(self.refreshed)} tuples, cost {self.refresh_cost:g})"
            )
        if self.degraded:
            parts.append(
                f"(degraded: {', '.join(self.unreachable_sources) or 'sources unreachable'})"
            )
        return " ".join(parts)
