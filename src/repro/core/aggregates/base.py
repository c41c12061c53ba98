"""Common protocol for bounded aggregate evaluators.

Each of the five standard aggregates (MIN, MAX, SUM, COUNT, AVG) — and
every extension aggregate registered beside them (MEDIAN) — provides:

* :meth:`AggregateSpec.bound_without_predicate` — paper §5: the bounded
  answer when every tuple of the table contributes, swept from the
  table's :class:`~repro.storage.columnar.ColumnStore` endpoint arrays;
* :meth:`AggregateSpec.bound_with_classification` — paper §6: the bounded
  answer over a ``(T+, T?)`` partition, from the
  :class:`~repro.predicates.batch.ColumnarClassification` gathered at
  its position pair.

Evaluators are pure functions of the current interval endpoints; exact
(already-refreshed) values participate as zero-width intervals, so a single
code path covers cached, partially refreshed, and fully refreshed tables.

This is the one method family: the executor, the §7 join heuristic,
GROUP BY (each group's share of the table's pair) and the iterative and
relative drivers all call it.  The ``Row``-taking family it replaced is
the test oracle ``tests/oracle/row_protocol.py``.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.bound import Bound
from repro.errors import TrappError

__all__ = ["AggregateSpec", "registry", "get_aggregate"]


class AggregateSpec(Protocol):
    """The interface every bounded aggregate evaluator implements."""

    #: SQL name: "MIN", "MAX", "SUM", "COUNT", or "AVG".
    name: str
    #: Whether the aggregate takes a column argument (COUNT does not).
    needs_column: bool

    def bound_without_predicate(self, store, column: str | None) -> Bound:
        """Bounded answer over every tuple of a column store (§5)."""
        ...

    def bound_with_classification(self, cc, column: str | None) -> Bound:
        """Bounded answer from a partition's T+/T? endpoint arrays (§6)."""
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
