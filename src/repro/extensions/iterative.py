"""Iterative / online CHOOSE_REFRESH (paper §8.2 extension).

The batch algorithms in :mod:`repro.core.refresh` select the whole refresh
set *before* any refresh happens, so the choice must be safe for every
possible realization of the refreshed values.  §8.2 proposes the
alternative this module implements: refresh tuples one at a time (or one
small batch at a time), recomputing the bounded answer after each step and
stopping as soon as the constraint is met.  Because actual refreshed
values usually land strictly inside their old bounds, the iterative
strategy often refreshes fewer tuples than the batch bound requires — at
the price of more protocol round trips.

Also provided is the §8.2 "online aggregation" behaviour: the iterator
yields the bounded answer after every refresh, so a UI can show the bound
shrinking toward the precise answer (CONTROL-style progressive results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.executor import RefreshProvider, bounded_answer
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import ConstraintUnsatisfiableError
from repro.predicates.ast import Predicate, TruePredicate
from repro.storage.row import Row
from repro.storage.table import Table

__all__ = ["IterativeRefreshExecutor", "RefreshStep"]


@dataclass(frozen=True, slots=True)
class RefreshStep:
    """One step of the online refinement: who was refreshed, where the
    answer stands."""

    refreshed_tid: int | None
    bound: Bound
    cumulative_cost: float


class IterativeRefreshExecutor:
    """Refreshes one tuple at a time until the constraint is met.

    Tuple priority: widest remaining uncertainty contribution per unit
    cost — the greedy rule that maximizes expected width reduction per
    round trip.  For MIN/MAX the contribution is the overlap with the
    contested region; for SUM/AVG it is the (zero-extended) bound width;
    for COUNT it is T? membership.
    """

    def __init__(
        self,
        refresher: RefreshProvider,
        cost: CostFunc = uniform_cost,
    ) -> None:
        self.refresher = refresher
        self.cost = cost

    # ------------------------------------------------------------------
    def run(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        max_width: float,
        predicate: Predicate | None = None,
    ) -> BoundedAnswer:
        """Drain :meth:`steps` and return the final answer."""
        final_bound: Bound | None = None
        refreshed: list[int] = []
        total_cost = 0.0
        initial: Bound | None = None
        for step in self.steps(table, aggregate, column, max_width, predicate):
            if initial is None:
                initial = step.bound
            final_bound = step.bound
            total_cost = step.cumulative_cost
            if step.refreshed_tid is not None:
                refreshed.append(step.refreshed_tid)
        assert final_bound is not None
        return BoundedAnswer(
            bound=final_bound,
            refreshed=frozenset(refreshed),
            refresh_cost=total_cost,
            initial_bound=initial,
        )

    def steps(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        max_width: float,
        predicate: Predicate | None = None,
    ) -> Iterator[RefreshStep]:
        """Yield the online sequence of bounded answers.

        The first step carries ``refreshed_tid=None`` (the cached-only
        answer); each later step reports one refresh.
        """
        predicate = predicate if predicate is not None else TruePredicate()
        spec = get_aggregate(aggregate)
        total_cost = 0.0

        bound, report = self._compute(table, spec, column, predicate)
        yield RefreshStep(None, bound, total_cost)

        for _ in range(len(table) + 1):
            if width_within(bound.width, max_width):
                return
            target = self._pick(table, spec.name, column, report, bound, max_width)
            if target is None:
                raise ConstraintUnsatisfiableError(
                    f"answer {bound} cannot be narrowed to width {max_width:g}; "
                    "no refreshable tuples remain"
                )
            total_cost += self.cost(target)
            self.refresher.refresh(table, [target.tid])
            bound, report = self._compute(table, spec, column, predicate)
            yield RefreshStep(target.tid, bound, total_cost)
        if not width_within(bound.width, max_width):
            raise ConstraintUnsatisfiableError(
                f"answer {bound} still wider than {max_width:g} after "
                f"{len(table)} refresh rounds; the refresher is not "
                "collapsing bounds"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _compute(table: Table, spec, column: str | None, predicate: Predicate):
        """The executor's step 1: ``(bound, report)``."""
        return bounded_answer(table, spec, column, predicate)

    def _pick(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        report,
        bound: Bound,
        max_width: float,
    ) -> Row | None:
        """The unrefreshed tuple with the best benefit/cost score.

        Candidates are the T+ then the T? tuples of the partition the
        current bound was assembled from (``report``; every tuple, all
        in T+, when there was no predicate to classify).
        """
        tids = table.columns.sorted_tids()
        if report is None:
            plus, maybe = tids, tids[:0]
        else:
            plus, maybe = (tids[at] for at in report.positions)

        best: Row | None = None
        best_score = 0.0
        for tid, uncertain in [(t, False) for t in plus.tolist()] + [
            (t, True) for t in maybe.tolist()
        ]:
            row = table.row(tid)
            score = self._benefit(row, aggregate, column, uncertain, bound, max_width)
            if score <= 0:
                continue
            ratio = score / max(self.cost(row), 1e-12)
            if best is None or ratio > best_score:
                best = row
                best_score = ratio
        return best

    @staticmethod
    def _benefit(
        row: Row,
        aggregate: str,
        column: str | None,
        uncertain: bool,
        bound: Bound,
        max_width: float,
    ) -> float:
        if aggregate == "COUNT":
            return 1.0 if uncertain else 0.0
        assert column is not None
        value = row.bound(column)
        if aggregate in ("SUM", "AVG"):
            width = value.extend_to_zero().width if uncertain else value.width
            return width + (1.0 if uncertain else 0.0)
        if aggregate == "MIN":
            # Contribution to the contested region [lo_A, lo_A + width).
            contested_top = bound.lo + max(bound.width - max_width, 0.0)
            overlap = max(0.0, min(value.hi, contested_top) - value.lo)
            return overlap if value.width > 0 else 0.0
        if aggregate == "MAX":
            contested_bottom = bound.hi - max(bound.width - max_width, 0.0)
            overlap = max(0.0, value.hi - max(value.lo, contested_bottom))
            return overlap if value.width > 0 else 0.0
        # Unknown aggregate: fall back to raw width.
        return value.width
