"""A named registry of tables — the cache-local "database".

The SQL front-end resolves ``FROM`` clauses against a :class:`Catalog`;
the replication layer registers each cached table here so that queries and
refresh bookkeeping share one view of the data.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import TrappError, UnknownTableError
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["Catalog"]


class Catalog:
    """Maps table names to :class:`~repro.storage.table.Table` objects."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self._tables:
            raise TrappError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def register(self, table: Table) -> Table:
        """Adopt an existing table under its own name."""
        if table.name in self._tables:
            raise TrappError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(name)
        del self._tables[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def holds(self, table: Table) -> bool:
        """True when ``table`` *is* the table this catalog lists under
        its name (identity, not equality)."""
        return self._tables.get(table.name) is table

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def names(self) -> list[str]:
        return sorted(self._tables)

    def __repr__(self) -> str:
        return f"Catalog({', '.join(self.names()) or 'empty'})"
