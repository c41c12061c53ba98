"""Rows (tuples) of the TRAPP storage substrate.

A :class:`Row` carries an immutable tuple id plus a mapping from column
name to value.  For a row attached to a table, the table's
:class:`~repro.storage.columnar.ColumnStore` is the truth for bounded
cells: bulk bound writes (``ColumnStore.write_bounds``) touch only the
arrays, and the row re-reads its bounds from them the next time it is
read.  On the *cache* side, bounded columns hold
:class:`~repro.core.bound.Bound` objects; on the *source* side (and after a
refresh collapses a cached bound), they hold plain numbers.  The helper
:meth:`Row.bound` normalizes either representation to a ``Bound`` so that
aggregate evaluators can treat exact values as zero-width intervals.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.bound import Bound
from repro.errors import UnknownColumnError

__all__ = ["Row"]


class Row:
    """A single tuple: an id plus column values.

    Rows are mutable only through :meth:`set` (used by the cache when a
    refresh arrives); queries treat them as read-only.
    """

    __slots__ = ("tid", "_values", "_sink", "_stamp")

    def __init__(self, tid: int, values: Mapping[str, Any]) -> None:
        self.tid = tid
        self._values: dict[str, Any] = dict(values)
        # Optional write-through target (the owning table's ColumnStore).
        # Table.insert attaches it so direct row.set calls keep the
        # columnar mirror and its exactness counters in sync; detached
        # copies (clones, join outputs) leave it None.
        self._sink = None
        # The sink's ``bulk_stamp`` this row's bounded cells were last
        # loaded at; a moved stamp means a bulk write bypassed the row.
        self._stamp = 0

    def _attach(self, sink) -> None:
        """Make ``sink`` (the owning table's store) the write-through
        target and the truth for this row's bounded cells."""
        self._sink = sink
        self._stamp = sink.bulk_stamp

    def _detach(self) -> None:
        """Leave the table: keep the current values, stop following."""
        self._current()
        self._sink = None

    def _current(self) -> dict[str, Any]:
        """The values, after catching up with any bulk bound write."""
        sink = self._sink
        if sink is not None and sink.bulk_stamp != self._stamp:
            sink.load_bounds(self.tid, self._values)
            self._stamp = sink.bulk_stamp
        return self._values

    # ------------------------------------------------------------------
    def __getitem__(self, column: str) -> Any:
        # The staleness test of _current(), inlined: this is the accessor
        # every row-at-a-time loop sits on.
        sink = self._sink
        if sink is not None and sink.bulk_stamp != self._stamp:
            self._current()
        try:
            return self._values[column]
        except KeyError:
            raise UnknownColumnError(column) from None

    def get(self, column: str, default: Any = None) -> Any:
        return self._current().get(column, default)

    def __contains__(self, column: object) -> bool:
        return column in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def keys(self):
        return self._values.keys()

    def items(self):
        return self._current().items()

    def as_dict(self) -> dict[str, Any]:
        """A shallow copy of the row's values."""
        return dict(self._current())

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
    def set(self, column: str, value: Any) -> None:
        """Overwrite one column value (cache refresh path).

        Writes through to the owning table's columnar store, when any.
        """
        if column not in self._values:
            raise UnknownColumnError(column)
        self._values[column] = value
        if self._sink is not None:
            self._sink.set(self.tid, column, value)

    def copy(self) -> "Row":
        """An independent copy sharing no mutable state."""
        return Row(self.tid, self._current())

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.tid == other.tid and self._current() == other._current()

    def __repr__(self) -> str:
        vals = ", ".join(f"{k}={v}" for k, v in self._current().items())
        return f"Row(#{self.tid}: {vals})"
