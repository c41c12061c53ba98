"""Common protocol for bounded aggregate evaluators.

Each of the five standard aggregates (MIN, MAX, SUM, COUNT, AVG) provides:

* :meth:`AggregateSpec.bound_without_predicate` — paper §5: the bounded
  answer when every tuple of the table contributes (any selection predicate
  involved only exact columns and has already been applied);
* :meth:`AggregateSpec.bound_with_classification` — paper §6: the bounded
  answer given the T+/T?/T− partition induced by a predicate over bounded
  columns.

Evaluators are pure functions of the rows' current interval values; exact
(already-refreshed) values participate as zero-width intervals, so a single
code path covers cached, partially refreshed, and fully refreshed tables.

The ``*_columnar`` twins compute the same bounds from a table's
:class:`~repro.storage.columnar.ColumnStore` arrays
(``bound_without_predicate_columnar``) or from a
:class:`~repro.predicates.batch.ColumnarClassification`
(``bound_with_classification_columnar``).  They are what the query
executor and the §7 join heuristic call, so every registered aggregate —
MEDIAN included — provides both; the row-taking pair serves callers that
hold :class:`Row` lists (GROUP BY, the iterative and relative drivers).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.bound import Bound
from repro.errors import TrappError
from repro.predicates.classify import Classification
from repro.storage.row import Row

__all__ = ["AggregateSpec", "registry", "get_aggregate"]


class AggregateSpec(Protocol):
    """The interface every bounded aggregate evaluator implements."""

    #: SQL name: "MIN", "MAX", "SUM", "COUNT", or "AVG".
    name: str
    #: Whether the aggregate takes a column argument (COUNT does not).
    needs_column: bool

    def bound_without_predicate(
        self, rows: Sequence[Row], column: str | None
    ) -> Bound:
        """Bounded answer over all rows (no bounded-column predicate)."""
        ...

    def bound_with_classification(
        self, classification: Classification, column: str | None
    ) -> Bound:
        """Bounded answer given a T+/T?/T− partition."""
        ...

    def bound_without_predicate_columnar(self, store, column: str | None) -> Bound:
        """:meth:`bound_without_predicate` over a column store's arrays."""
        ...

    def bound_with_classification_columnar(self, cc, column: str | None) -> Bound:
        """:meth:`bound_with_classification` over T+/T? endpoint arrays."""
        ...


registry: dict[str, AggregateSpec] = {}


def register(spec: AggregateSpec) -> AggregateSpec:
    """Add an evaluator to the global registry (module import side effect)."""
    registry[spec.name] = spec
    return spec


def get_aggregate(name: str) -> AggregateSpec:
    """Look up an evaluator by SQL name (case-insensitive)."""
    try:
        return registry[name.upper()]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise TrappError(f"unknown aggregate {name!r}; known: {known}") from None
