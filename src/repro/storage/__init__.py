"""In-memory relational storage substrate: schemas, rows, tables.

A table's cells live once, in its column store
(:mod:`repro.storage.columnar`) — parallel lo/hi arrays per numeric
column, object arrays for EXACT and TEXT columns, exactness counters and
sorted endpoint/width orders — which is what the query executor reads;
rows are read-only records built from it.
"""

from repro.storage.catalog import Catalog
from repro.storage.columnar import ColumnStore
from repro.storage.row import Row
from repro.storage.schema import Column, ColumnKind, Schema
from repro.storage.table import Table

__all__ = [
    "Catalog",
    "ColumnStore",
    "Column",
    "ColumnKind",
    "Row",
    "Schema",
    "Table",
]
