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

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import width_within
from repro.core.executor import RefreshProvider, bounded_answer
from repro.core.refresh.base import CostFunc, candidate_costs, uniform_cost
from repro.errors import ConstraintUnsatisfiableError
from repro.predicates.ast import Predicate, TruePredicate
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
            tid, cost = target
            total_cost += cost
            self.refresher.refresh(table, [tid])
            bound, report = self._compute(table, spec, column, predicate)
            yield RefreshStep(tid, bound, total_cost)
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
    ) -> tuple[int, float] | None:
        """The unrefreshed tuple with the best benefit/cost score, and
        its cost.

        Candidates are the T+ then the T? tuples of the partition the
        current bound was assembled from (``report``; every tuple, all
        in T+, when there was no predicate to classify), priced together.
        """
        store = table.columns
        if report is None:
            at, n_plus = np.arange(len(store)), len(store)
        else:
            at, n_plus = np.concatenate(report.positions), len(report.positions[0])
        if column is None:
            lo = hi = [0.0] * len(at)  # COUNT scores membership only
        else:
            lo, hi = (endpoint[at].tolist() for endpoint in store.endpoints(column))
        costs = candidate_costs(table, self.cost, at).tolist()

        best = None
        best_score = 0.0
        for k, tid in enumerate(store.sorted_tids()[at].tolist()):
            score = self._benefit(
                lo[k], hi[k], aggregate, k >= n_plus, bound, max_width
            )
            if score <= 0:
                continue
            ratio = score / max(costs[k], 1e-12)
            if best is None or ratio > best_score:
                best = tid, costs[k]
                best_score = ratio
        return best

    @staticmethod
    def _benefit(
        lo: float,
        hi: float,
        aggregate: str,
        uncertain: bool,
        bound: Bound,
        max_width: float,
    ) -> float:
        if aggregate == "COUNT":
            return 1.0 if uncertain else 0.0
        if aggregate in ("SUM", "AVG"):
            if uncertain:  # the bound extended to zero, plus its membership
                return max(hi, 0.0) - min(lo, 0.0) + 1.0
            return hi - lo
        if aggregate == "MIN":
            # Contribution to the contested region [lo_A, lo_A + width).
            contested_top = bound.lo + max(bound.width - max_width, 0.0)
            overlap = max(0.0, min(hi, contested_top) - lo)
            return overlap if hi > lo else 0.0
        if aggregate == "MAX":
            contested_bottom = bound.hi - max(bound.width - max_width, 0.0)
            overlap = max(0.0, hi - max(lo, contested_bottom))
            return overlap if hi > lo else 0.0
        # Unknown aggregate: fall back to raw width.
        return hi - lo
