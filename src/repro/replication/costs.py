"""Refresh cost models (paper §3 and §4).

The paper assumes a known quantitative cost to refresh each data object,
possibly varying per object (e.g. with node distance), though "in practice
it is likely that the cost of refreshing an object depends only on which
source it comes from".  Total cost of a set is the sum of member costs
(batching amortization is an extension — see
:mod:`repro.extensions.batching`).

Cost models implement a single ``cost_of(row) -> float`` method and are
adapted to the optimizer-facing ``CostFunc`` with :meth:`CostModel.as_func`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.refresh.base import CostFunc
from repro.errors import TrappError
from repro.storage.row import Row

__all__ = [
    "CostModel",
    "UniformCostModel",
    "ColumnCostModel",
    "PerSourceCostModel",
    "TableCostModel",
]


class CostModel:
    """Base class for refresh cost models."""

    def cost_of(self, row: Row) -> float:
        raise NotImplementedError

    def as_func(self) -> CostFunc:
        """Adapt to the ``Callable[[Row], float]`` optimizers expect."""
        return self.cost_of


@dataclass(slots=True)
class UniformCostModel(CostModel):
    """Every refresh costs the same constant (default 1)."""

    cost: float = 1.0

    def cost_of(self, row: Row) -> float:
        return self.cost

    def as_func(self) -> CostFunc:
        func = self.cost_of
        wrapper = lambda row: func(row)  # noqa: E731 - taggable wrapper
        wrapper.vector_cost = ("uniform", self.cost)
        return wrapper


@dataclass(slots=True)
class ColumnCostModel(CostModel):
    """Per-tuple costs stored in a column of the table itself.

    Matches the paper's Figure 2 layout, where each link row carries its own
    ``refresh cost`` value.
    """

    column: str = "cost"

    def cost_of(self, row: Row) -> float:
        return float(row.number(self.column))

    def as_func(self) -> CostFunc:
        func = self.cost_of
        wrapper = lambda row: func(row)  # noqa: E731 - taggable wrapper
        wrapper.vector_cost = ("column", self.column)
        return wrapper


@dataclass(slots=True)
class PerSourceCostModel(CostModel):
    """Each source charges a flat per-object cost — the "likely in
    practice" model from §3.

    ``source_of`` maps a row to its source id (commonly a column read);
    unknown sources fall back to ``default_cost``.

    When the source id genuinely lives in a column, set ``source_column``
    instead of (or alongside) ``source_of``: :meth:`as_func` then tags
    the cost function with a ``vector_cost`` source kind, letting
    CHOOSE_REFRESH evaluate the whole column→cost mapping in one
    vectorized pass (:func:`repro.storage.columnar.cost_vector`) rather
    than calling :meth:`cost_of` on every candidate row.
    """

    costs_by_source: Mapping[str, float] = field(default_factory=dict)
    source_of: Callable[[Row], str] | None = None
    default_cost: float = 1.0
    #: Name of the (exact) column holding each tuple's source id; enables
    #: the ``vector_cost`` tag.  ``source_of`` wins (and the function
    #: stays untagged) when both are given.
    source_column: str | None = "source"

    def cost_of(self, row: Row) -> float:
        if self.source_of is not None:
            source = self.source_of(row)
        else:
            source = row.get(self.source_column or "source", "")
        return float(self.costs_by_source.get(source, self.default_cost))

    def as_func(self) -> CostFunc:
        func = self.cost_of
        wrapper = lambda row: func(row)  # noqa: E731 - taggable wrapper
        # Only tag when ``cost_of`` reads the very column the tag names:
        # a custom ``source_of`` callable is opaque, and a tag must agree
        # with the function per tuple.
        if self.source_of is None and self.source_column is not None:
            wrapper.vector_cost = (
                "source",
                (
                    self.source_column,
                    dict(self.costs_by_source),
                    float(self.default_cost),
                ),
            )
        return wrapper


@dataclass(slots=True)
class TableCostModel(CostModel):
    """Explicit per-tuple-id costs; handy for tests and benchmarks."""

    costs: Mapping[int, float] = field(default_factory=dict)
    default_cost: float | None = None

    def cost_of(self, row: Row) -> float:
        if row.tid in self.costs:
            return float(self.costs[row.tid])
        if self.default_cost is not None:
            return self.default_cost
        raise TrappError(f"no refresh cost known for tuple #{row.tid}")
