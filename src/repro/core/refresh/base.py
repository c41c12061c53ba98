"""Shared machinery for CHOOSE_REFRESH optimizers.

A CHOOSE_REFRESH algorithm receives the cached table (whole, §5; or as
the ``(T+, T?)`` position pair a bounded-column predicate partitions it
into, §6 — T− is never looked at), the aggregation column, the precision
constraint ``R``, and a per-tuple refresh cost function.  It returns a
:class:`RefreshPlan`: the set of tuple ids to refresh, chosen so the
recomputed bounded answer is guaranteed to satisfy ``H_A - L_A <= R`` for
*any* precise values of the refreshed tuples within their current bounds.

Cost functions default to the uniform model; the replication layer's
:mod:`repro.replication.costs` provides richer models (per-source,
distance-weighted) that plug in unchanged.  Whatever the model, every
chooser prices its candidates through :func:`candidate_costs`, which is
where a cost that is not a finite non-negative number is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.errors import OptimizerError
from repro.storage.columnar import cost_vector
from repro.storage.row import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.columnar import CandidateVectors
    from repro.storage.table import Table

__all__ = [
    "CostFunc",
    "RefreshPlan",
    "uniform_cost",
    "cost_from_column",
    "cost_from_sources",
    "vector_cost_of",
    "candidate_costs",
    "plan_at",
    "ChooseRefresh",
]

CostFunc = Callable[[Row], float]


def uniform_cost(row: Row) -> float:
    """Every refresh costs 1 (the paper's uniform-cost special case)."""
    return 1.0


#: Cost tag: CHOOSE_REFRESH can evaluate this cost function over a whole
#: candidate set without touching Row objects (see :func:`candidate_costs`).
uniform_cost.vector_cost = ("uniform", 1.0)  # type: ignore[attr-defined]


def cost_from_column(column: str) -> CostFunc:
    """Read each tuple's refresh cost from one of its own (exact) columns,
    as in the paper's Figure 2 sample table."""

    def cost(row: Row) -> float:
        return float(row.number(column))

    cost.vector_cost = ("column", column)  # type: ignore[attr-defined]
    return cost


def cost_from_sources(
    column: str, costs_by_source: dict, default: float = 1.0
) -> CostFunc:
    """Per-source refresh costs, keyed by a source-id column.

    The "likely in practice" §3 model — every tuple costs whatever its
    source charges — as a tagged cost function: called on a row it reads
    the source id from ``column`` and maps it through
    ``costs_by_source``; the planner evaluates the same mapping over the
    whole column at once (``vector_cost`` kind ``"source"``).
    """
    table = dict(costs_by_source)

    def cost(row: Row) -> float:
        return float(table.get(row.get(column), default))

    cost.vector_cost = ("source", (column, table, float(default)))  # type: ignore[attr-defined]
    return cost


def vector_cost_of(cost: CostFunc) -> tuple[str, object] | None:
    """How to evaluate ``cost`` columnar-side, if at all.

    Returns ``("uniform", value)`` for constant costs, ``("column",
    name)`` for costs stored in a table column, ``("source", (column,
    costs_by_source, default))`` for per-source costs keyed by a
    source-id column, or ``None`` for opaque callables, which
    :func:`candidate_costs` evaluates once per plan into a cost array.
    Cost functions opt in by carrying a ``vector_cost`` attribute
    (:func:`uniform_cost`, :func:`cost_from_column`,
    :func:`cost_from_sources`, and the :mod:`repro.replication.costs`
    models set it).
    """
    tag = getattr(cost, "vector_cost", None)
    if tag is None:
        return None
    kind, arg = tag
    if kind == "uniform":
        value = float(arg)
        if not 0.0 <= value < math.inf:
            raise OptimizerError(
                f"uniform refresh cost {value!r} is not a finite "
                "non-negative number"
            )
        return ("uniform", value)
    if kind == "column":
        return ("column", str(arg))
    if kind == "source":
        column, table, default = arg
        return ("source", (str(column), dict(table), float(default)))
    return None


def candidate_costs(table: "Table", cost: CostFunc, at=None) -> np.ndarray:
    """The refresh cost of each candidate tuple, as one array.

    ``at`` holds the candidates' tuple-order positions (``None``: every
    tuple); the result is aligned with it.  A ``vector_cost`` tag is
    honoured when it can be — a constant, an exact numeric column, a
    source-id column — and is only ever an optimisation: an untagged
    callable, or a tag :func:`~repro.storage.columnar.cost_vector`
    cannot read (say a cost column holding a wide bound), means ``cost``
    is called on the row of each candidate, once, and on no other tuple
    — CHOOSE_REFRESH never prices a tuple it could not refresh, and a
    callable may raise on one.  A cost that is negative, NaN or infinite
    raises :class:`~repro.errors.OptimizerError` naming the first such
    candidate.
    """
    store = table.columns
    kind = vector_cost_of(cost)
    if kind is not None and kind[0] == "uniform":
        return np.full(len(store) if at is None else len(at), kind[1])
    costs = cost_vector(store, kind)
    if costs is not None:
        if at is not None:
            costs = costs[at]
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
