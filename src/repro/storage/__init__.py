"""In-memory relational storage substrate: schemas, rows, tables.

Every table maintains a columnar mirror (:mod:`repro.storage.columnar`)
— parallel lo/hi arrays per numeric column, exactness counters and
sorted endpoint/width orders — which is what the query executor reads.
"""

from repro.storage.catalog import Catalog
from repro.storage.columnar import ColumnStore
from repro.storage.row import Row
from repro.storage.schema import Column, ColumnKind, Schema
from repro.storage.table import ShardMap, Table

__all__ = [
    "Catalog",
    "ColumnStore",
    "Column",
    "ColumnKind",
    "Row",
    "Schema",
    "ShardMap",
    "Table",
]
