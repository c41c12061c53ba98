"""Rows (tuples) of the TRAPP storage substrate.

A :class:`Row` is an immutable record: a tuple id plus a mapping from
column name to value.  Tables do not hold rows — a table's
:class:`~repro.storage.columnar.ColumnStore` is the only copy of every
cell, and :meth:`Table.row <repro.storage.table.Table.row>` /
:meth:`~repro.storage.table.Table.rows` build rows from it when called.
Writes go through the table (``insert``, ``update_value``, ``delete``).

In a row built from a table, an EXACT or TEXT cell is the object that was
inserted, and a BOUNDED cell is a plain ``float`` when its bound is exact
and a :class:`~repro.core.bound.Bound` otherwise — on a master and on a
cache alike.  The helper :meth:`Row.bound` normalizes either
representation to a ``Bound`` so that evaluators can treat exact values
as zero-width intervals.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.bound import Bound
from repro.errors import UnknownColumnError

__all__ = ["Row"]


class Row:
    """A single tuple: an id plus column values, read-only."""

    __slots__ = ("tid", "_values")

    def __init__(self, tid: int, values: Mapping[str, Any]) -> None:
        self.tid = tid
        self._values: dict[str, Any] = dict(values)

    # ------------------------------------------------------------------
    def __getitem__(self, column: str) -> Any:
        try:
            return self._values[column]
        except KeyError:
            raise UnknownColumnError(column) from None

    def get(self, column: str, default: Any = None) -> Any:
        return self._values.get(column, default)

    def __contains__(self, column: object) -> bool:
        return column in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def keys(self):
        return self._values.keys()

    def items(self):
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """A shallow copy of the row's values."""
        return dict(self._values)

    # ------------------------------------------------------------------
    def bound(self, column: str) -> Bound:
        """The value of ``column`` as an interval.

        Plain numbers are lifted to zero-width bounds, so callers can apply
        interval arithmetic uniformly whether or not the tuple has been
        refreshed.
        """
        value = self[column]
        if isinstance(value, Bound):
            return value
        return Bound.exact(value)

    def number(self, column: str) -> float:
        """The value of ``column`` as an exact number.

        Zero-width bounds collapse to their single point; a genuinely wide
        bound raises ``TypeError`` because no exact value exists.
        """
        value = self[column]
        if isinstance(value, Bound):
            if value.is_exact:
                return value.lo
            raise TypeError(
                f"column {column!r} of tuple {self.tid} holds the non-exact "
                f"bound {value}; refresh it before reading an exact value"
            )
        return float(value)

    def is_exact(self, column: str) -> bool:
        """True iff the column's current value is exactly known."""
        value = self[column]
        return not isinstance(value, Bound) or value.is_exact

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.tid == other.tid and self._values == other._values

    def __repr__(self) -> str:
        vals = ", ".join(f"{k}={v}" for k, v in self._values.items())
        return f"Row(#{self.tid}: {vals})"
