"""Precision constraints attached to TRAPP/AG queries.

A query's precision constraint limits the width of the bounded answer
``[L_A, H_A]``.  The paper's primary form is an *absolute* constraint: a
non-negative constant ``R`` with the requirement ``H_A - L_A <= R``
(``WITHIN R`` in the query syntax).  Section 8.1 sketches *relative*
constraints (``2 * |A| * P`` for a fraction ``P``), which we implement via
the conservative reduction the paper describes: derive an absolute ``R``
from a bounded answer — in the executor's refresh loop, from every bound
it computes (:func:`repro.core.executor.refresh_steps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bound import Bound
from repro.errors import PrecisionConstraintError

__all__ = [
    "WIDTH_TOLERANCE",
    "width_within",
    "PrecisionConstraint",
    "AbsolutePrecision",
    "RelativePrecision",
    "EXACT",
    "UNCONSTRAINED",
]

#: Relative slack applied to every width-vs-constraint comparison,
#: absorbing the floating-point noise of endpoint accumulation.  One
#: shared tolerance keeps the executor's early-exit and guarantee
#: checks, answer/constraint satisfaction predicates, and the extension
#: pipelines from ever disagreeing about whether a width meets a budget.
WIDTH_TOLERANCE = 1e-6


def width_within(width: float, max_width: float) -> bool:
    """True when ``width`` satisfies the budget up to float slack.

    The slack scales with the budget (``WIDTH_TOLERANCE * max_width``):
    a microscopic budget is not drowned by an absolute epsilon, while a
    Figure 6-scale budget tolerates the accumulation noise of summing
    thousands of endpoints.  A zero budget demands an exactly zero width
    — which refreshed (exact) tuples produce exactly.

    Known tradeoff: the slack tracks the budget, not the data magnitude,
    so a sub-1 budget over values many orders of magnitude larger can
    trip the executor's post-refresh guarantee check on pure summation
    noise.  That failure is loud (``ConstraintUnsatisfiableError``),
    whereas an absolute slack silently under-enforces small budgets —
    the loud direction is the one we keep.
    """
    return width <= max_width + WIDTH_TOLERANCE * abs(max_width)


@dataclass(frozen=True, slots=True)
class PrecisionConstraint:
    """Base class; subclasses resolve to an absolute width budget."""

    def resolve(self, first_pass: Bound) -> float:
        """Return the absolute maximum answer width ``R``.

        ``first_pass`` is a bounded answer — the refresh loop passes each
        bound it computes; absolute constraints ignore it, relative
        constraints use it to derive a conservative absolute budget.
        """
        raise NotImplementedError

    def provisional(self, bound: Bound) -> bool:
        """Whether a narrower bound may loosen ``resolve(bound)``: the
        refresh loop then takes one tuple at a time, not a batch plan."""
        return False

    def satisfied_by(self, answer: Bound) -> bool:
        """True iff ``answer`` meets this constraint.

        For relative constraints, the budget is evaluated against the final
        answer itself (the guarantee ``width <= 2 * |A| * P`` holds whenever
        ``width <= 2 * min|a| * P`` over the answer interval).
        """
        return width_within(answer.width, self.resolve(answer))


@dataclass(frozen=True, slots=True)
class AbsolutePrecision(PrecisionConstraint):
    """``WITHIN R``: the answer interval must be at most ``R`` wide."""

    width: float

    def __post_init__(self) -> None:
        if math.isnan(self.width) or self.width < 0:
            raise PrecisionConstraintError(
                f"precision width must be a non-negative real, got {self.width}"
            )

    def resolve(self, first_pass: Bound) -> float:
        return self.width

    def __str__(self) -> str:
        if math.isinf(self.width):
            return "WITHIN inf"
        return f"WITHIN {self.width:g}"


@dataclass(frozen=True, slots=True)
class RelativePrecision(PrecisionConstraint):
    """Relative constraint ``P`` from paper §8.1.

    Denotes the absolute constraint ``2 * |A| * P`` where ``A`` is the true
    answer.  Since ``A`` is unknown in advance, we resolve conservatively
    using the smallest possible ``|A|`` consistent with a bounded answer,
    guaranteeing ``R <= 2 * |A| * P`` for the actual ``A``.  The refresh
    loop re-resolves ``R`` every round, and a bound shrinking inside the
    last only loosens it.  While the bound straddles zero only ``R = 0``
    is safe — provisionally: the loop refreshes one tuple at a time until
    the bound clears zero (or is exact).
    """

    fraction: float

    def __post_init__(self) -> None:
        if math.isnan(self.fraction) or self.fraction < 0:
            raise PrecisionConstraintError(
                f"relative precision must be a non-negative real, got {self.fraction}"
            )

    def resolve(self, first_pass: Bound) -> float:
        if first_pass.contains(0.0):
            # |A| could be arbitrarily small: only an exact answer is safe.
            return 0.0
        min_abs = min(abs(first_pass.lo), abs(first_pass.hi))
        if math.isinf(min_abs):
            return math.inf
        return 2.0 * min_abs * self.fraction

    def provisional(self, bound: Bound) -> bool:
        return bound.contains(0.0)

    def __str__(self) -> str:
        return f"WITHIN {self.fraction:.2%} (relative)"


#: Demand an exact answer (``R = 0``): the "precise mode" extreme.
EXACT = AbsolutePrecision(0.0)

#: No constraint (``R = inf``): the "imprecise mode" extreme.
UNCONSTRAINED = AbsolutePrecision(math.inf)
