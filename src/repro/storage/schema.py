"""Table schemas for the TRAPP storage substrate.

A schema names each column and declares whether the column holds *exact*
values (known precisely at the cache — e.g. key columns, labels) or
*bounded* values (cached as :class:`~repro.core.bound.Bound` intervals that
are guaranteed to contain the remote master value).  The distinction drives
predicate classification: predicates over exact columns evaluate to plain
booleans, while predicates touching bounded columns evaluate to three-valued
results and induce the paper's T+/T?/T− partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.bound import Bound
from repro.errors import SchemaError, UnknownColumnError

__all__ = ["ColumnKind", "Column", "Schema"]


class ColumnKind(enum.Enum):
    """Storage class of a column."""

    #: Exact numeric value, identical at source and cache (e.g. an id).
    EXACT = "exact"
    #: Numeric value replicated with a bound; caches hold ``Bound`` objects.
    BOUNDED = "bounded"
    #: Exact non-numeric value (labels, names); never aggregated.
    TEXT = "text"


@dataclass(frozen=True, slots=True)
class Column:
    """A single named column with its storage class."""

    name: str
    kind: ColumnKind = ColumnKind.BOUNDED

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")

    @property
    def is_bounded(self) -> bool:
        return self.kind is ColumnKind.BOUNDED

    @property
    def is_numeric(self) -> bool:
        return self.kind is not ColumnKind.TEXT

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` if ``value`` cannot live in this column.

        A numeric column takes any plain number float64 can hold but NaN
        (±inf is legal: a :class:`Bound` allows infinite endpoints).
        """
        if self.kind is ColumnKind.TEXT:
            if not isinstance(value, str):
                raise SchemaError(
                    f"column {self.name!r} is TEXT but got {type(value).__name__}"
                )
            return
        if type(value) is not float:  # a plain float (a master write) skips these
            # BOUNDED columns accept either a Bound (cache side) or a plain
            # number (master side / freshly refreshed exact value).
            if self.kind is ColumnKind.BOUNDED and isinstance(value, Bound):
                return
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                kind = "EXACT numeric" if self.kind is ColumnKind.EXACT else "BOUNDED"
                raise SchemaError(
                    f"column {self.name!r} is {kind} but got {type(value).__name__}"
                )
            try:
                float(value)
            except OverflowError:
                raise SchemaError(
                    f"column {self.name!r} cannot hold an int too large for float64"
                ) from None
        if value != value:
            raise SchemaError(f"column {self.name!r} cannot hold NaN")


class Schema:
    """An ordered, name-indexed collection of :class:`Column` objects."""

    __slots__ = ("_columns", "_by_name", "_column_names", "_bounded_columns", "name")

    def __init__(self, columns: Iterable[Column], name: str = "") -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        if not self._columns:
            raise SchemaError("a schema requires at least one column")
        self._by_name: dict[str, Column] = {}
        for col in self._columns:
            if col.name in self._by_name:
                raise SchemaError(f"duplicate column name {col.name!r}")
            self._by_name[col.name] = col
        # A schema never changes: derive the views the hot loops ask for once.
        self._column_names = tuple(c.name for c in self._columns)
        self._bounded_columns = tuple(c for c in self._columns if c.is_bounded)
        self.name = name

    # ------------------------------------------------------------------
    @staticmethod
    def of(**kinds: ColumnKind | str) -> "Schema":
        """Build a schema from keyword arguments.

        >>> Schema.of(id="exact", price="bounded", ticker="text")
        """
        columns = []
        for name, kind in kinds.items():
            if isinstance(kind, str):
                kind = ColumnKind(kind)
            columns.append(Column(name, kind))
        return Schema(columns)

    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._column_names

    @property
    def bounded_columns(self) -> tuple[Column, ...]:
        return self._bounded_columns

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(name, self.name or None) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.kind.value}" for c in self._columns)
        return f"Schema({cols})"

    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Look up a column by name, raising on unknown names."""
        return self[name]

    def validate_values(self, values: Mapping[str, object]) -> None:
        """Check that ``values`` provides exactly the schema's columns."""
        missing = set(self._by_name) - set(values)
        if missing:
            raise SchemaError(f"missing values for columns {sorted(missing)}")
        extra = set(values) - set(self._by_name)
        if extra:
            raise SchemaError(f"unexpected columns {sorted(extra)}")
        for name, value in values.items():
            self._by_name[name].validate(value)
