"""Shared machinery for CHOOSE_REFRESH optimizers.

A CHOOSE_REFRESH algorithm receives the cached table (whole, §5; or as
the ``(T+, T?)`` position pair a bounded-column predicate partitions it
into, §6 — T− is never looked at), the aggregation column, the precision
constraint ``R``, and a per-tuple refresh cost function.  It returns a
:class:`RefreshPlan`: the set of tuple ids to refresh, chosen so the
recomputed bounded answer is guaranteed to satisfy ``H_A - L_A <= R`` for
*any* precise values of the refreshed tuples within their current bounds.

Costs default to the uniform model; :mod:`repro.core.refresh.costs` holds
the richer ones (a cost column, per-source, per-tuple-id), each a
:class:`~repro.core.refresh.costs.CostModel` answering with one array.
Whatever the model, every chooser prices its candidates through
:func:`candidate_costs` — the only caller of ``costs_at``, the only place
a bare ``Callable[[Row], float]`` meets a row, and where a cost that is
not a finite non-negative number is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.core.refresh.costs import CostModel, uniform_cost
from repro.errors import OptimizerError
from repro.storage.row import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.columnar import CandidateVectors
    from repro.storage.table import Table

__all__ = [
    "CostFunc",
    "CostModel",
    "RefreshPlan",
    "uniform_cost",
    "candidate_costs",
    "plan_at",
    "ChooseRefresh",
]

#: What a ``cost`` argument takes: a model, or a function of one row.
CostFunc = CostModel | Callable[[Row], float]


def candidate_costs(table: "Table", cost: CostFunc, at=None) -> np.ndarray:
    """The refresh cost of each candidate tuple, as one array.

    ``at`` holds the candidates' tuple-order positions (``None``: every
    tuple); the result is aligned with it.  A
    :class:`~repro.core.refresh.costs.CostModel` answers with the array
    itself.  Anything else is a callable from outside the program: it is
    called on the row of each candidate, once, and on no other tuple —
    CHOOSE_REFRESH never prices a tuple it could not refresh, and a
    callable may raise on one.  A cost that is negative, NaN or infinite
    raises :class:`~repro.errors.OptimizerError` naming the first such
    candidate.
    """
    store = table.columns
    costs_at = getattr(cost, "costs_at", None)
    if costs_at is not None:
        costs = costs_at(table, at)
    else:
        tids = store.sorted_tids() if at is None else store.sorted_tids()[at]
        costs = np.fromiter(
            (cost(table.row(tid)) for tid in tids.tolist()),
            dtype=np.float64,
            count=len(tids),
        )
    # A plan's total and the knapsack's profits are sums of these.  NaN
    # propagates through ``min`` and fails the first comparison.
    if len(costs) and not (costs.min() >= 0.0 and costs.max() < math.inf):
        k = int(np.flatnonzero(~((costs >= 0.0) & (costs < math.inf)))[0])
        tid = int(store.sorted_tids()[k if at is None else at[k]])
        raise OptimizerError(
            f"refresh cost {float(costs[k])!r} of tuple #{tid} is not a "
            "finite non-negative number"
        )
    return costs


@dataclass(frozen=True, slots=True)
class RefreshPlan:
    """The optimizer's decision: which tuples to refresh and what it costs.

    After dispatch, the effective plan a query receives back may carry
    *failure* metadata: ``unreached`` are planned tuples whose sources
    could not be contacted (after retries, breaker gating, and replica
    failover), ``failed_sources`` names those sources.  ``tids`` then
    holds only the tuples actually refreshed, so downstream accounting
    (cost shares, invalidation) stays truthful; the executor finishes
    such queries in degraded mode from the bounds it has.
    """

    tids: frozenset[int]
    total_cost: float
    unreached: frozenset[int] = frozenset()
    failed_sources: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether some planned tuples could not be refreshed."""
        return bool(self.unreached)

    @staticmethod
    def empty() -> "RefreshPlan":
        return RefreshPlan(frozenset(), 0.0)

    def then(self, later: "RefreshPlan") -> "RefreshPlan":
        """The spend of this round and ``later`` together: tuples and cost
        add up, failures are ``later``'s (the round that ended a query)."""
        return RefreshPlan(
            self.tids | later.tids,
            self.total_cost + later.total_cost,
            later.unreached,
            later.failed_sources,
        )

    def __len__(self) -> int:
        return len(self.tids)


def plan_at(table: "Table", cost: CostFunc, at: np.ndarray) -> RefreshPlan:
    """The plan refreshing the tuples at tuple-order positions ``at``."""
    tids = table.columns.sorted_tids()[at]
    return RefreshPlan(
        frozenset(tids.tolist()), float(candidate_costs(table, cost, at).sum())
    )


class ChooseRefresh(Protocol):
    """Interface implemented by each aggregate's optimizer.

    Both methods read the table's
    :class:`~repro.storage.columnar.ColumnStore` arrays, price
    candidates through :func:`candidate_costs`, and return a
    ``(plan, candidates)`` pair — ``candidates`` being the harvested
    :class:`~repro.storage.columnar.CandidateVectors` when the
    aggregate's answer width is linear in them (SUM), else ``None``.
    """

    name: str

    def without_predicate(
        self,
        table: "Table",
        column: str | None,
        max_width: float,
        cost: CostFunc,
    ) -> "tuple[RefreshPlan, CandidateVectors | None]":
        """Paper §5 variants: every tuple of the table contributes."""
        ...

    def with_classification(
        self,
        table: "Table",
        positions: "tuple[np.ndarray, np.ndarray]",
        column: str | None,
        max_width: float,
        cost: CostFunc,
        predicate=None,
    ) -> "tuple[RefreshPlan, CandidateVectors | None]":
        """Paper §6 variants: candidates are a ``(T+, T?)`` position pair.

        The pair is the classifier's
        (:attr:`~repro.predicates.batch.ClassifyReport.positions`) or a
        subset of it (one GROUP BY group); ``predicate``, when given,
        applies the Appendix D refinement to T? bounds.
        """
        ...
