"""The ``Row``-taking aggregate protocol ``src/`` used to carry.

Until PR 19 every aggregate and every CHOOSE_REFRESH existed twice: over
the table's column arrays (what serves, and all that is left in
``src/``) and over :class:`Row` lists and a row-level
:class:`Classification` — the paper's §5–§6 written one tuple at a time.
The second family lives here, unchanged in behaviour, as the reference
the lock-step oracles (``row_executor.py``, ``row_join.py``,
``row_groupby.py``) are built from and the "row ≡ array" properties
compare against:

* :func:`classify` / :func:`classify_trilean` / :func:`restrict_bound` —
  the row classifier and Appendix D refinement
  (was ``repro.predicates.classify``);
* :func:`get_row_aggregate` — ``bound_without_predicate(rows, column)`` /
  ``bound_with_classification(classification, column)`` per aggregate;
* :func:`get_row_choose_refresh` — ``without_predicate(rows, …)`` /
  ``with_classification(classification, …)`` per aggregate, SUM and AVG
  building one :class:`KnapsackItem` per row for the object solvers;
* :func:`bounded_median` / :func:`choose_refresh_median`
  (was ``repro.extensions.median``) and :func:`plan_of`
  (was ``RefreshPlan.of``).

Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.aggregates import get_aggregate
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.knapsack import (
    KnapsackItem,
    solve_exact_dp,
    solve_greedy_uniform,
    solve_ibarra_kim,
)
from repro.core.refresh.base import RefreshPlan
from repro.errors import TrappError
from repro.extensions.median_spec import _extreme_median, median_of
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Predicate,
)
from repro.storage.row import Row
from tests.oracle.row_eval import Trilean, evaluate_trilean
from tests.oracle.transforms import certain, evaluate_endpoint, possible

CostFunc = Callable[[Row], float]


def uniform_cost(row: Row) -> float:
    """Every refresh costs 1."""
    return 1.0


DEFAULT_EPSILON = 0.1
_EXACT_DP_PROFIT_LIMIT = 100_000


# ----------------------------------------------------------------------
# Row classification (was repro.predicates.classify)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Classification:
    """The T+/T?/T− partition of a set of rows under one predicate."""

    plus: list[Row] = field(default_factory=list)
    maybe: list[Row] = field(default_factory=list)
    minus: list[Row] = field(default_factory=list)

    @property
    def plus_or_maybe(self) -> list[Row]:
        """``T+ ∪ T?`` — every tuple that might contribute to the answer."""
        return self.plus + self.maybe

    def counts(self) -> tuple[int, int, int]:
        """``(|T+|, |T?|, |T−|)``."""
        return (len(self.plus), len(self.maybe), len(self.minus))

    def label_of(self, tid: int) -> str:
        """Human-readable label (``T+``, ``T?``, ``T-``) for one tuple id."""
        for rows, label in ((self.plus, "T+"), (self.maybe, "T?"), (self.minus, "T-")):
            if any(r.tid == tid for r in rows):
                return label
        raise KeyError(f"tuple #{tid} was not classified")

    def __repr__(self) -> str:
        p, q, m = self.counts()
        return f"Classification(T+={p}, T?={q}, T-={m})"


def classify(rows: Iterable[Row], predicate: Predicate) -> Classification:
    """Partition ``rows`` via the symbolic Possible/Certain transforms."""
    certain_p = certain(predicate)
    possible_p = possible(predicate)
    result = Classification()
    for row in rows:
        if evaluate_endpoint(certain_p, row):
            result.plus.append(row)
        elif evaluate_endpoint(possible_p, row):
            result.maybe.append(row)
        else:
            result.minus.append(row)
    return result


def classify_trilean(rows: Iterable[Row], predicate: Predicate) -> Classification:
    """Partition ``rows`` via direct three-valued evaluation."""
    result = Classification()
    for row in rows:
        verdict = evaluate_trilean(predicate, row)
        if verdict is Trilean.TRUE:
            result.plus.append(row)
        elif verdict is Trilean.MAYBE:
            result.maybe.append(row)
        else:
            result.minus.append(row)
    return result


def restrict_bound(bound: Bound, predicate: Predicate, column: str) -> Bound:
    """Shrink ``bound`` to the sub-interval consistent with ``predicate``.

    Implements the Appendix D refinement: when the selection predicate
    always restricts the aggregation column (e.g. aggregating ``latency``
    under ``latency > 10``), a ``T?`` tuple's bound can be narrowed to the
    part that could actually contribute — ``[max(lo, 10), hi]`` in the
    example — before computing the bounded answer or choosing refresh
    tuples.  Only conjunctions of simple ``column OP constant`` comparisons
    are exploited; any other structure leaves the bound unchanged (which is
    always sound).
    """
    return _restrict(bound, predicate, column)


def _restrict(bound: Bound, predicate: Predicate, column: str) -> Bound:
    if isinstance(predicate, And):
        return _restrict(_restrict(bound, predicate.left, column), predicate.right, column)
    if isinstance(predicate, Comparison):
        cmp = predicate.normalized()
        left, right = cmp.left, cmp.right
        if (
            isinstance(left, ColumnRef)
            and left.column == column
            and left.scale == 1.0
            and left.offset == 0.0
            and isinstance(right, Literal)
            and not isinstance(right.value, str)
        ):
            k = float(right.value)
            if cmp.op in (">", ">="):
                lo = min(max(bound.lo, k), bound.hi)
                return Bound(lo, bound.hi)
            if cmp.op in ("<", "<="):
                hi = max(min(bound.hi, k), bound.lo)
                return Bound(bound.lo, hi)
            if cmp.op == "=" and bound.contains(k):
                return Bound.exact(k)
        return bound
    # Or / Not / TruePredicate: no sound single-interval restriction.
    return bound


def plan_of(rows: Iterable[Row], cost: CostFunc) -> RefreshPlan:
    """The plan refreshing ``rows`` (was ``RefreshPlan.of``)."""
    rows = list(rows)
    return RefreshPlan(
        frozenset(row.tid for row in rows),
        sum(cost(row) for row in rows),
    )


# ----------------------------------------------------------------------
# Bounded answers over rows
# ----------------------------------------------------------------------
def _require_column(name: str, column: str | None) -> str:
    if column is None:
        raise TrappError(f"{name} requires an aggregation column")
    return column


class RowMin:
    """Bounded MIN over rows."""

    name = "MIN"
    needs_column = True

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        column = _require_column(self.name, column)
        lo = min((row.bound(column).lo for row in rows), default=math.inf)
        hi = min((row.bound(column).hi for row in rows), default=math.inf)
        return Bound(lo, hi)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        column = _require_column(self.name, column)
        lo = min(
            (row.bound(column).lo for row in classification.plus_or_maybe),
            default=math.inf,
        )
        hi = min(
            (row.bound(column).hi for row in classification.plus),
            default=math.inf,
        )
        # An empty T+ leaves the upper endpoint unbounded (+inf) while T?
        # tuples may still pull the lower endpoint down; lo <= hi holds
        # because each T+ row contributes to both minima.
        return Bound(lo, hi)


class RowMax:
    """Bounded MAX over rows."""

    name = "MAX"
    needs_column = True

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        column = _require_column(self.name, column)
        lo = max((row.bound(column).lo for row in rows), default=-math.inf)
        hi = max((row.bound(column).hi for row in rows), default=-math.inf)
        return Bound(lo, hi)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        column = _require_column(self.name, column)
        lo = max(
            (row.bound(column).lo for row in classification.plus),
            default=-math.inf,
        )
        hi = max(
            (row.bound(column).hi for row in classification.plus_or_maybe),
            default=-math.inf,
        )
        return Bound(lo, hi)


class RowSum:
    """Bounded SUM over rows."""

    name = "SUM"
    needs_column = True

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("SUM requires an aggregation column")
        lo = 0.0
        hi = 0.0
        for row in rows:
            b = row.bound(column)
            lo += b.lo
            hi += b.hi
        return Bound(lo, hi)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("SUM requires an aggregation column")
        lo = 0.0
        hi = 0.0
        for row in classification.plus:
            b = row.bound(column)
            lo += b.lo
            hi += b.hi
        for row in classification.maybe:
            b = row.bound(column).extend_to_zero()
            lo += b.lo
            hi += b.hi
        return Bound(lo, hi)


class RowCount:
    """Bounded COUNT over rows."""

    name = "COUNT"
    needs_column = False

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        return Bound.exact(len(rows))

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        plus = len(classification.plus)
        maybe = len(classification.maybe)
        return Bound(plus, plus + maybe)


def tight_avg_bound(classification: Classification, column: str) -> Bound:
    """The Appendix E exact bound for AVG under a predicate.

    Lower endpoint: average the T+ lower endpoints, then sweep the T? lower
    endpoints in increasing order, averaging each in while it decreases the
    running average.  The upper endpoint is symmetric with decreasing upper
    endpoints.  Empty T+ ∪ T? yields the empty-average convention
    ``[+inf, -inf]`` clipped to an unbounded interval, matching "no tuple
    may satisfy the predicate" (the answer set could be empty, so no finite
    guarantee exists); we return the full line in that case.
    """
    plus = classification.plus
    maybe = classification.maybe
    if not plus and not maybe:
        # No tuple can satisfy the predicate: the precise AVG is undefined.
        # We adopt the convention of an exact empty marker at NaN-free
        # extremes: the unbounded interval.
        return Bound.unbounded()

    if not plus and maybe:
        # The answer set may be empty (undefined AVG) or contain any mix of
        # T? tuples; every individual value is a possible average, so the
        # hull of the T? bounds is the tight answer.
        lo = min(row.bound(column).lo for row in maybe)
        hi = max(row.bound(column).hi for row in maybe)
        return Bound(lo, hi)

    # Lower endpoint sweep.
    s_l = sum(row.bound(column).lo for row in plus)
    k_l = len(plus)
    for lo in sorted(row.bound(column).lo for row in maybe):
        if lo < s_l / k_l:
            s_l += lo
            k_l += 1
        else:
            break

    # Upper endpoint sweep (mirror image).
    s_h = sum(row.bound(column).hi for row in plus)
    k_h = len(plus)
    for hi in sorted((row.bound(column).hi for row in maybe), reverse=True):
        if hi > s_h / k_h:
            s_h += hi
            k_h += 1
        else:
            break

    return Bound(s_l / k_l, s_h / k_h)


class RowAvg:
    """Bounded AVG over rows (tight Appendix E bound)."""

    name = "AVG"
    needs_column = True

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("AVG requires an aggregation column")
        if not rows:
            return Bound.unbounded()
        total = SUM.bound_without_predicate(rows, column)
        count = len(rows)
        return Bound(total.lo / count, total.hi / count)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("AVG requires an aggregation column")
        return tight_avg_bound(classification, column)


def bounded_median(rows: Sequence[Row], column: str) -> Bound:
    """The bounded MEDIAN over a column of bounded values.

    ``[ median(L_1..L_n) , median(H_1..H_n) ]`` — both endpoint multisets
    use the same selection index, so the interval contains the precise
    median for every realization.
    """
    if not rows:
        return Bound.unbounded()
    lows = [row.bound(column).lo for row in rows]
    highs = [row.bound(column).hi for row in rows]
    return Bound(median_of(lows), median_of(highs))


class RowMedian:
    """Bounded MEDIAN over rows."""

    name = "MEDIAN"
    needs_column = True

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        return bounded_median(rows, column)

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        if column is None:
            raise TrappError("MEDIAN requires an aggregation column")
        plus = classification.plus
        maybe = classification.maybe
        if not plus and not maybe:
            return Bound.unbounded()
        lo = _extreme_median(
            [row.bound(column).lo for row in plus],
            [row.bound(column).lo for row in maybe],
            minimize=True,
        )
        hi = _extreme_median(
            [row.bound(column).hi for row in plus],
            [row.bound(column).hi for row in maybe],
            minimize=False,
        )
        return Bound(lo, hi)


SUM = RowSum()
COUNT = RowCount()
MEDIAN = RowMedian()

_AGGREGATES = {
    spec.name: spec
    for spec in (RowMin(), RowMax(), SUM, COUNT, RowAvg(), MEDIAN)
}


def get_row_aggregate(name: str):
    """The row evaluator for an aggregate by SQL name."""
    return _AGGREGATES[get_aggregate(name).name]


# ----------------------------------------------------------------------
# CHOOSE_REFRESH over rows
# ----------------------------------------------------------------------
def _require_chooser_column(name: str, column: str | None) -> str:
    if column is None:
        raise TrappError(f"{name} CHOOSE_REFRESH requires an aggregation column")
    return column


class RowMinChooseRefresh:
    """Appendix B forced set, one row at a time."""

    name = "MIN"

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        column = _require_chooser_column(self.name, column)
        min_hi = min((row.bound(column).hi for row in rows), default=math.inf)
        threshold = min_hi - max_width
        chosen = [row for row in rows if row.bound(column).lo < threshold]
        return plan_of(chosen, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        column = _require_chooser_column(self.name, column)
        min_hi_plus = min(
            (row.bound(column).hi for row in classification.plus),
            default=math.inf,
        )
        threshold = min_hi_plus - max_width
        chosen = [
            row
            for row in classification.plus_or_maybe
            if row.bound(column).lo < threshold
        ]
        return plan_of(chosen, cost)


class RowMaxChooseRefresh:
    """Appendix C forced set, one row at a time."""

    name = "MAX"

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        column = _require_chooser_column(self.name, column)
        max_lo = max((row.bound(column).lo for row in rows), default=-math.inf)
        threshold = max_lo + max_width
        chosen = [row for row in rows if row.bound(column).hi > threshold]
        return plan_of(chosen, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        column = _require_chooser_column(self.name, column)
        max_lo_plus = max(
            (row.bound(column).lo for row in classification.plus),
            default=-math.inf,
        )
        threshold = max_lo_plus + max_width
        chosen = [
            row
            for row in classification.plus_or_maybe
            if row.bound(column).hi > threshold
        ]
        return plan_of(chosen, cost)


class RowSumChooseRefresh:
    """§5.2 / §6.2 knapsack, one ``KnapsackItem`` per row."""

    name = "SUM"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        force_exact: bool = False,
        force_approx: bool = False,
    ):
        if force_exact and force_approx:
            raise TrappError("force_exact and force_approx are mutually exclusive")
        self.epsilon = epsilon
        self.force_exact = force_exact
        #: Always run the Ibarra-Kim scheme, even when the instance admits
        #: the exact DP or uniform greedy.  Used by the Figure 5 bench to
        #: measure the approximation's epsilon/time tradeoff in isolation.
        self.force_approx = force_approx

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("SUM CHOOSE_REFRESH requires an aggregation column")
        items = [
            (row, KnapsackItem(row.tid, row.bound(column).width, cost(row)))
            for row in rows
        ]
        return self._solve(items, max_width, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("SUM CHOOSE_REFRESH requires an aggregation column")
        items: list[tuple[Row, KnapsackItem]] = []
        for row in classification.plus:
            width = row.bound(column).width
            items.append((row, KnapsackItem(row.tid, width, cost(row))))
        for row in classification.maybe:
            width = row.bound(column).extend_to_zero().width
            items.append((row, KnapsackItem(row.tid, width, cost(row))))
        # T− tuples are ignored entirely: they contribute nothing and need
        # no refresh.
        return self._solve(items, max_width, cost)

    def _solve(
        self,
        items: list[tuple[Row, KnapsackItem]],
        capacity: float,
        cost: CostFunc,
    ) -> RefreshPlan:
        knapsack_items = [item for _, item in items]
        costs = {item.item_id: item.profit for item in knapsack_items}

        if self.force_approx:
            solution = solve_ibarra_kim(knapsack_items, capacity, self.epsilon)
        elif self._is_uniform(costs):
            solution = solve_greedy_uniform(knapsack_items, capacity)
        elif self.force_exact or self._exact_feasible(costs):
            solution = solve_exact_dp(knapsack_items, capacity)
        else:
            solution = solve_ibarra_kim(knapsack_items, capacity, self.epsilon)

        kept = solution.chosen
        chosen_rows = [row for row, item in items if item.item_id not in kept]
        return plan_of(chosen_rows, cost)

    @staticmethod
    def _is_uniform(costs: dict[int, float]) -> bool:
        values = set(costs.values())
        return len(values) <= 1

    @staticmethod
    def _exact_feasible(costs: dict[int, float]) -> bool:
        total = 0.0
        for value in costs.values():
            if abs(value - round(value)) > 1e-9:
                return False
            total += round(value)
        return total <= _EXACT_DP_PROFIT_LIMIT


class RowCountChooseRefresh:
    """§6.3: the cheapest T? rows."""

    name = "COUNT"

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        # Cardinality is exact at the cache; nothing to refresh.
        return RefreshPlan.empty()

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        uncertain = len(classification.maybe)
        if math.isinf(max_width):
            needed = 0
        else:
            needed = max(0, math.ceil(uncertain - max_width - 1e-9))
        if needed == 0:
            return RefreshPlan.empty()
        cheapest = sorted(classification.maybe, key=lambda row: (cost(row), row.tid))
        return plan_of(cheapest[:needed], cost)


class RowAvgChooseRefresh:
    """Appendix F knapsack, one ``KnapsackItem`` per row."""

    name = "AVG"

    def __init__(self, epsilon: float = DEFAULT_EPSILON, force_exact: bool = False):
        self.epsilon = epsilon
        self.force_exact = force_exact
        self._sum = RowSumChooseRefresh(epsilon=epsilon, force_exact=force_exact)

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("AVG CHOOSE_REFRESH requires an aggregation column")
        count = len(rows)
        if count == 0:
            return RefreshPlan.empty()
        # AVG width = SUM width / COUNT, so budget SUM at R * COUNT (§5.4).
        return self._sum.without_predicate(rows, column, max_width * count, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("AVG CHOOSE_REFRESH requires an aggregation column")
        if math.isinf(max_width):
            return RefreshPlan.empty()
        plus = classification.plus
        maybe = classification.maybe
        if not plus and not maybe:
            return RefreshPlan.empty()

        sum0 = SUM.bound_with_classification(classification, column)
        count0 = COUNT.bound_with_classification(classification, column)
        l_count = count0.lo

        if l_count <= 0:
            return self._degenerate_plan(classification, column, max_width, cost)

        capacity = l_count * max_width
        slope = self._slope(sum0, l_count, max_width)

        items: list[tuple[Row, KnapsackItem]] = []
        for row in plus:
            weight = row.bound(column).width
            items.append((row, KnapsackItem(row.tid, weight, cost(row))))
        for row in maybe:
            weight = row.bound(column).extend_to_zero().width + slope
            items.append((row, KnapsackItem(row.tid, weight, cost(row))))

        knapsack_items = [item for _, item in items]
        solution = self._solve(knapsack_items, capacity)
        kept = solution.chosen
        chosen_rows = [row for row, item in items if item.item_id not in kept]
        return plan_of(chosen_rows, cost)

    @staticmethod
    def _slope(sum0: Bound, l_count: float, max_width: float) -> float:
        """The Appendix F per-T?-tuple weight penalty.

        ``max(H'_S, -L'_S, H'_S - L'_S) / L'_C - R``; clamped at zero when a
        very loose constraint would make it negative (keeping a T? tuple can
        never *relax* the SUM budget).
        """
        numerator = max(sum0.hi, -sum0.lo, sum0.hi - sum0.lo)
        return max(0.0, numerator / l_count - max_width)

    def _solve(self, items: list[KnapsackItem], capacity: float):
        profits = {item.profit for item in items}
        if len(profits) <= 1:
            return solve_greedy_uniform(items, capacity)
        integral = all(abs(p - round(p)) <= 1e-9 for p in profits)
        total = sum(round(item.profit) for item in items) if integral else math.inf
        if self.force_exact or (integral and total <= 100_000):
            return solve_exact_dp(items, capacity)
        return solve_ibarra_kim(items, capacity, self.epsilon)

    def _degenerate_plan(
        self,
        classification: Classification,
        column: str,
        max_width: float,
        cost: CostFunc,
    ) -> RefreshPlan:
        """Fallback when no tuple is guaranteed to satisfy the predicate.

        Refresh every T? tuple (deciding the predicate and making COUNT
        exact); additionally budget the surviving T+ tuples' SUM at
        ``R * |T+|`` so the final AVG width is covered even if every T?
        tuple drops out.
        """
        maybe_plan = plan_of(classification.maybe, cost)
        if not classification.plus:
            return maybe_plan
        plus_plan = self._sum.without_predicate(
            classification.plus, column, max_width * len(classification.plus), cost
        )
        combined = set(maybe_plan.tids) | set(plus_plan.tids)
        total = maybe_plan.total_cost + plus_plan.total_cost
        return RefreshPlan(frozenset(combined), total)


def choose_refresh_median(
    rows: Sequence[Row],
    column: str,
    max_width: float,
    cost: CostFunc = uniform_cost,
) -> RefreshPlan:
    """Select tuples to refresh so the median bound narrows to ``max_width``.

    The rule is forced (cost-independent), like MIN/MAX: refresh every
    tuple whose bound is **wider than the budget** and **overlaps the
    initial median window** ``W0 = [median(L), median(H)]``.

    Soundness argument.  Refreshing replaces ``[L_i, H_i]`` by an exact
    value inside it, so every post-refresh lower-endpoint multiset
    dominates the original (``L'_i >= L_i``) and every upper-endpoint
    multiset is dominated (``H'_i <= H_i``); hence any post-refresh window
    ``[median(L'), median(H')]`` is contained in ``W0``.  A counting
    argument shows every window ``[a, b]`` is *spanned* by some tuple
    (``L'_i <= a`` and ``H'_i >= b``): at most ``k-1`` tuples have
    ``H' < b`` and at most ``n-k`` have ``L' > a``, leaving at least one
    spanning tuple, whose width bounds the window width.  Post-refresh, a
    spanning tuple is refreshed (width 0), or has width ``<= R``, or was
    disjoint from ``W0`` — and the last cannot span a sub-window of
    ``W0``.  Therefore the final width is at most ``R`` for every
    realization of the refreshed values.
    """
    if max_width < 0:
        raise TrappError(f"precision budget must be non-negative, got {max_width}")
    if not rows:
        return RefreshPlan.empty()

    lows = [row.bound(column).lo for row in rows]
    highs = [row.bound(column).hi for row in rows]
    window = Bound(median_of(lows), median_of(highs))
    if width_within(window.width, max_width):
        return RefreshPlan.empty()

    chosen = [
        row
        for row in rows
        if row.bound(column).width > max_width
        and row.bound(column).overlaps(window)
    ]
    return plan_of(chosen, cost)


class RowMedianChooseRefresh:
    """Membership + window rule over rows."""

    name = "MEDIAN"

    def without_predicate(
        self,
        rows: Sequence[Row],
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        return choose_refresh_median(rows, column, max_width, cost)

    def with_classification(
        self,
        classification: Classification,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> RefreshPlan:
        """Membership + window rule.

        Refresh (a) every T? tuple — deciding membership exactly — and (b)
        every T+ ∪ T? tuple wider than the budget whose bound overlaps the
        current extreme-median window.  After (a), the contributing set is
        known; after (b), the spanning-lemma argument of
        :func:`choose_refresh_median` bounds the realized window by the
        budget for any realization.
        """
        if column is None:
            raise TrappError("MEDIAN CHOOSE_REFRESH requires an aggregation column")
        spec = MEDIAN
        window = spec.bound_with_classification(classification, column)
        if width_within(window.width, max_width):
            return RefreshPlan.empty()
        chosen: dict[int, Row] = {row.tid: row for row in classification.maybe}
        for row in classification.plus_or_maybe:
            bound = row.bound(column)
            if bound.width > max_width and bound.overlaps(window):
                chosen[row.tid] = row
        return plan_of(chosen.values(), cost)


def get_row_choose_refresh(
    name: str, epsilon: float | None = None, force_exact: bool = False
):
    """The row chooser for an aggregate (``get_choose_refresh``'s rules)."""
    key = get_aggregate(name).name
    if key == "SUM":
        return RowSumChooseRefresh(
            epsilon=epsilon or DEFAULT_EPSILON, force_exact=force_exact
        )
    if key == "AVG":
        return RowAvgChooseRefresh(
            epsilon=epsilon or DEFAULT_EPSILON, force_exact=force_exact
        )
    return {
        "MIN": RowMinChooseRefresh,
        "MAX": RowMaxChooseRefresh,
        "COUNT": RowCountChooseRefresh,
        "MEDIAN": RowMedianChooseRefresh,
    }[key]()
