"""Refresh cost models (paper §3 and §4).

The paper assumes a known quantitative cost to refresh each data object,
possibly varying per object (e.g. with node distance), though "in practice
it is likely that the cost of refreshing an object depends only on which
source it comes from".  Total cost of a set is the sum of member costs
(batching amortization is an extension — see
:mod:`repro.extensions.batching`).

A cost model is anything with :meth:`CostModel.costs_at`: the price list
of a table as one array, gathered at tuple-order positions.  The four
models here read it off the table's
:class:`~repro.storage.columnar.ColumnStore` and build no row.  Nothing
calls ``costs_at`` but :func:`repro.core.refresh.base.candidate_costs`,
which also accepts a bare ``Callable[[Row], float]`` and checks every
price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol

import numpy as np

from repro.errors import OptimizerError, TrappError, UnknownColumnError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table

__all__ = [
    "CostModel",
    "UniformCostModel",
    "ColumnCostModel",
    "PerSourceCostModel",
    "TableCostModel",
    "uniform_cost",
]


class CostModel(Protocol):
    """What CHOOSE_REFRESH needs to know about refresh costs."""

    def costs_at(self, table: "Table", at: np.ndarray | None) -> np.ndarray:
        """The refresh cost of the tuples at tuple-order positions ``at``
        (``None``: every tuple), as a float array aligned with ``at``."""
        ...


@dataclass(frozen=True, slots=True)
class UniformCostModel:
    """Every refresh costs the same constant (default 1)."""

    cost: float = 1.0

    def costs_at(self, table: "Table", at: np.ndarray | None) -> np.ndarray:
        return np.full(len(table.columns) if at is None else len(at), float(self.cost))


#: Every refresh costs 1 (the paper's uniform-cost special case); the
#: default of every ``cost`` argument.
uniform_cost = UniformCostModel()


@dataclass(frozen=True, slots=True)
class ColumnCostModel:
    """Per-tuple costs stored in a column of the table itself.

    Matches the paper's Figure 2 layout, where each link row carries its own
    ``refresh cost`` value.  The column must hold an exact number for every
    tuple that is priced; a text cell or a wide bound there raises
    :class:`~repro.errors.OptimizerError`.
    """

    column: str = "cost"

    def costs_at(self, table: "Table", at: np.ndarray | None) -> np.ndarray:
        store = table.columns
        if self.column not in store.schema:
            raise UnknownColumnError(self.column, table.name)
        if store.is_text(self.column):
            values = store.objects(self.column)
            if at is not None:
                values = values[at]
            if len(values):
                self._reject(table, at, 0, f"holds {values[0]!r}")
            return np.empty(0, dtype=np.float64)
        lo, hi = store.endpoints(self.column)
        if at is not None:
            lo, hi = lo[at], hi[at]
        if not store.column_exact(self.column):
            wide = np.flatnonzero(lo != hi)
            if len(wide):
                k = int(wide[0])
                self._reject(table, at, k, f"holds the bound [{lo[k]:g}, {hi[k]:g}]")
        return lo

    def _reject(self, table: "Table", at, k: int, holds: str) -> None:
        tid = int(table.columns.sorted_tids()[k if at is None else at[k]])
        raise OptimizerError(
            f"cost column {self.column!r} of table {table.name!r} {holds} "
            f"for tuple #{tid}, not an exact number"
        )


@dataclass(frozen=True, slots=True)
class PerSourceCostModel:
    """Each source charges a flat per-object cost — the "likely in
    practice" model from §3.

    ``source_column`` names the column (text, or exact numeric) holding
    each tuple's source id; sources missing from ``costs_by_source``, and
    every tuple of a table without that column, cost ``default_cost``.  A
    source rule that is not a column read is written as a bare callable.
    """

    costs_by_source: Mapping[object, float] = field(default_factory=dict)
    default_cost: float = 1.0
    source_column: str = "source"

    def costs_at(self, table: "Table", at: np.ndarray | None) -> np.ndarray:
        store = table.columns
        column = self.source_column
        default = float(self.default_cost)
        if column not in store.schema:
            return np.full(len(store) if at is None else len(at), default)
        if store.is_text(column):
            values = store.objects(column)
        elif store.column_exact(column):
            values = store.endpoints(column)[0]
        else:
            raise OptimizerError(
                f"source column {column!r} of table {table.name!r} holds "
                "bounds that are not exact, not source ids"
            )
        if at is not None:
            values = values[at]
        if not len(values):
            return np.empty(0, dtype=np.float64)
        # Python-level dict lookups only for the *distinct* source ids (a
        # handful of shards), then one vectorized gather.
        uniques, inverse = np.unique(values, return_inverse=True)
        costs = self.costs_by_source
        mapped = np.fromiter(
            (costs.get(value, default) for value in uniques.tolist()),
            dtype=np.float64,
            count=len(uniques),
        )
        return mapped[inverse]


@dataclass(frozen=True, slots=True)
class TableCostModel:
    """Explicit per-tuple-id costs; handy for tests and benchmarks."""

    costs: Mapping[int, float] = field(default_factory=dict)
    default_cost: float | None = None

    def costs_at(self, table: "Table", at: np.ndarray | None) -> np.ndarray:
        tids = table.columns.sorted_tids()
        if at is not None:
            tids = tids[at]
        out = np.empty(len(tids), dtype=np.float64)
        for k, tid in enumerate(tids.tolist()):
            cost = self.costs.get(tid, self.default_cost)
            if cost is None:
                raise TrappError(f"no refresh cost known for tuple #{tid}")
            out[k] = cost
        return out
