"""CHOOSE_REFRESH for SUM (paper §5.2 and §6.2).

The complement trick: after refreshing a tuple its bound width is zero, so
the final answer width is the total width of the *unrefreshed* tuples.
Choosing the cheapest refresh set is therefore equivalent to packing a
knapsack of capacity ``R`` with the tuples *kept* (not refreshed),
maximizing kept refresh cost, where each tuple's weight is its bound width.

With a predicate over bounded columns, T− tuples are ignored and each T?
tuple's weight uses its bound extended to zero (§6.2): the tuple might not
satisfy the predicate and contribute nothing, so the answer must already
tolerate its value being absent.

Solver selection: the exact DP runs when every cost is integral and the
instance is small; otherwise the Ibarra–Kim ε-approximation is used (the
paper's choice, ε tunable).  The uniform-cost special case short-circuits
to the ascending-width greedy, which is optimal there (§5.2).

Both entry points harvest candidate vectors straight from the table's
:class:`~repro.storage.columnar.ColumnStore` — no per-tuple objects;
costs come from :func:`~repro.core.refresh.base.candidate_costs` as one
array per plan — answer the uniform-cost case with one sort-free
ascending walk of the (width, tid) ordering, and hand everything else to
:func:`repro.core.knapsack.solve_vector`:
:meth:`~SumChooseRefresh.without_predicate` over the whole table (the
store's cached width ordering),
:meth:`~SumChooseRefresh.with_classification` over a ``(T+, T?)``
position pair.  The one-``KnapsackItem``-per-row planner this replaced
is the test oracle ``tests/oracle/row_protocol.py``; its uniform walk
uses the same arithmetic, so those plans are bit-identical, exact-DP
plans are equal-cost, and in the ε-approximation branch both carry the
(1 − ε) certificate and need not pick the same set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

# Only ``solve_vector`` is called here.  The three object solvers stay
# importable under this module's name because benchmarks/e2e/tracing.py
# (frozen) wraps ``repro.core.refresh.summing.solve_*``.
from repro.core.knapsack import (  # noqa: F401
    solve_exact_dp,
    solve_greedy_uniform,
    solve_ibarra_kim,
    solve_vector,
)
from repro.core.refresh.base import (
    CostFunc,
    RefreshPlan,
    candidate_costs,
    uniform_cost,
)
from repro.errors import TrappError
from repro.storage import columnar
from repro.storage.columnar import CandidateVectors

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table

__all__ = ["SumChooseRefresh", "CHOOSE_SUM"]

#: Default approximation parameter; the paper finds ε = 0.1 "very close to
#: optimal" while keeping the optimizer fast (Figure 5 discussion).
DEFAULT_EPSILON = 0.1

#: Instances whose total integral profit stays below this use the exact DP.
_EXACT_DP_PROFIT_LIMIT = 100_000


class SumChooseRefresh:
    """Knapsack-based refresh selection for bounded SUM queries."""

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
        #: the exact DP or uniform greedy.  Used by the Figure 5 golden
        #: test to measure the approximation's ε/work tradeoff in isolation.
        self.force_approx = force_approx

    def without_predicate(
        self,
        table: "Table",
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
    ) -> tuple[RefreshPlan, CandidateVectors]:
        """§5 planning over the whole table.

        The candidate vectors are returned with the plan: they are the
        §8.2 rebatch metadata a scheduler reads.
        """
        if column is None:
            raise TrappError("SUM CHOOSE_REFRESH requires an aggregation column")
        cv = self._harvest(table, column, cost)
        return self._solve(cv, max_width), cv

    def with_classification(
        self,
        table: "Table",
        positions,
        column: str | None,
        max_width: float,
        cost: CostFunc = uniform_cost,
        predicate=None,
    ) -> tuple[RefreshPlan, CandidateVectors]:
        """§6.2 planning over a ``(T+, T?)`` position pair.

        T− tuples are ignored entirely: they contribute nothing and need
        no refresh.  ``predicate`` (when given) applies the Appendix D
        refinement to T? bounds before extending them to zero.
        """
        if column is None:
            raise TrappError("SUM CHOOSE_REFRESH requires an aggregation column")
        cv = self._harvest(table, column, cost, positions, predicate)
        return self._solve(cv, max_width), cv

    def _harvest(
        self, table: "Table", column, cost, positions=None, predicate=None
    ) -> CandidateVectors:
        """Candidate vectors over ``positions`` (``None``: every tuple)."""
        at = None if positions is None else np.concatenate(positions)
        # Called through the module: benchmarks/e2e/tracing.py (frozen)
        # rebinds ``repro.storage.columnar.harvest_candidates``.
        return columnar.harvest_candidates(
            table.columns, column, candidate_costs(table, cost, at),
            positions=positions, predicate=predicate,
        )

    def _solve(self, cv: CandidateVectors, capacity: float) -> RefreshPlan:
        """Solver selection over candidate vectors."""
        if len(cv) == 0:
            return RefreshPlan.empty()
        if not self.force_approx and cv.cost_min == cv.cost_max:
            # Uniform costs: the kept set is the longest sorted-width
            # prefix fitting the budget (§5.2 greedy).  The cut is
            # sequential — ``w <= remaining; remaining -= w`` over the
            # (width, tid) ordering, the row oracle's own arithmetic — so
            # the two return bit-identical plans on any data, not just
            # when prefix sums and sequential subtraction round alike.
            remaining = capacity
            cut = 0
            for width in np.asarray(cv.widths)[cv.order].tolist():
                if width <= remaining:
                    remaining -= width
                    cut += 1
                else:
                    break  # ascending: nothing later fits either
            refresh = cv.order[cut:]
            return RefreshPlan(
                frozenset(int(t) for t in cv.tids[refresh]),
                cv.cost_min * len(refresh),
            )
        weights, costs, order = cv.solver_vectors()
        solution = solve_vector(
            weights,
            costs,
            capacity,
            epsilon=self.epsilon,
            force_exact=self.force_exact,
            force_approx=self.force_approx,
            order=order,
            integral=cv.costs_integral,
            profit_total=cv.cost_total if cv.costs_integral else None,
            exact_profit_limit=_EXACT_DP_PROFIT_LIMIT,
        )
        tids = cv.tids
        return RefreshPlan(
            frozenset(int(tids[k]) for k in solution.refresh),
            solution.refresh_profit,
        )


CHOOSE_SUM = SumChooseRefresh()
