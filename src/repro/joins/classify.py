"""Candidate joined tuples as arrays, and their classification (paper §7).

"Computing the bounded answer to an aggregation query with a join
expression is no different from doing so with a selection predicate": the
join condition is just a predicate over columns of several tables, and the
Appendix D Possible/Certain machinery classifies each *joined* tuple into
T+/T?/T− exactly as before.

No joined tuple is ever materialized.  :func:`pair_index` names the
candidates by position — one integer array per table, tuple-id order —
and :class:`JoinedColumns` presents them to the dense batch evaluator
(:mod:`repro.predicates.batch`) as if they were one table: a column
reference resolves to its owning table's endpoint arrays gathered
through the index.  :func:`join_pairs` sweeps the join condition over
that view once and keeps the pairs that are possibly in the join.

For equality joins over exact key columns the candidates are the
matching pairs only (a sort plus two binary searches per left tuple);
any other condition starts from the full cross product.

The row-at-a-time join this replaces lives in ``tests/oracle/row_join.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import UnknownColumnError
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Predicate,
    TruePredicate,
)
from repro.predicates.batch import classify_masks
from repro.storage.table import Table

__all__ = ["JoinedColumns", "pair_index", "join_pairs"]

#: ``(table position, column name)``: what :meth:`JoinedColumns.column_key`
#: hands the batch evaluator, which passes it back to the accessors.
ColumnKey = tuple[int, str]


class JoinedColumns:
    """The columns of a set of joined tuples, gathered on demand.

    ``index[k]`` holds, per joined tuple, the tuple-order position of its
    base tuple in ``tables[k]``.  The accessors mirror the three
    :class:`~repro.storage.columnar.ColumnStore` reads the dense
    predicate evaluator makes.

    A reference qualified by one of the joined tables reads that table;
    any other reference reads the table that owns the column, the last
    one when several do (what the merged row's unqualified alias held).
    """

    __slots__ = ("tables", "index")

    #: Endpoint-index windows describe one table's tuples, not pairs.
    has_endpoint_orders = False

    def __init__(
        self, tables: Sequence[Table], index: Sequence[np.ndarray]
    ) -> None:
        self.tables = tuple(tables)
        self.index = tuple(index)

    def __len__(self) -> int:
        return len(self.index[0])

    def take(self, mask: np.ndarray) -> "JoinedColumns":
        """The joined tuples selected by a boolean mask, order kept."""
        return JoinedColumns(self.tables, [at[mask] for at in self.index])

    def base_tids(self, k: int) -> np.ndarray:
        """Each joined tuple's base tuple id in ``tables[k]``."""
        return self.tables[k].columns.sorted_tids()[self.index[k]]

    def column_key(self, column: str, table: str | None = None) -> ColumnKey:
        owner = None
        for k, candidate in enumerate(self.tables):
            if column in candidate.schema:
                owner = k
                if candidate.name == table:
                    break
        if owner is None:
            raise UnknownColumnError(column)
        return owner, column

    def is_text(self, key: ColumnKey) -> bool:
        k, column = key
        return self.tables[k].columns.is_text(column)

    def objects(self, key: ColumnKey) -> np.ndarray:
        k, column = key
        return self.tables[k].columns.objects(column)[self.index[k]]

    def endpoints(self, key: ColumnKey) -> tuple[np.ndarray, np.ndarray]:
        k, column = key
        lo, hi = self.tables[k].columns.endpoints(column)
        at = self.index[k]
        return lo[at], hi[at]


def _equality_key_columns(
    predicate: Predicate, tables: Sequence[Table]
) -> tuple[str, str] | None:
    """Detect ``t1.key = t2.key`` over *exact* columns for a 2-table join.

    Returns the (left column, right column) pair when the predicate is a
    conjunction containing such an equality; None otherwise.
    """
    if len(tables) != 2:
        return None

    def find(node: Predicate) -> tuple[str, str] | None:
        if isinstance(node, And):
            return find(node.left) or find(node.right)
        if isinstance(node, Comparison) and node.op == "=":
            left, right = node.left, node.right
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                t1, t2 = tables
                left_table = left.table or (
                    t1.name if left.column in t1.schema else t2.name
                )
                right_table = right.table or (
                    t2.name if right.column in t2.schema else t1.name
                )
                if {left_table, right_table} != {t1.name, t2.name}:
                    return None
                if left_table == t2.name:
                    left, right = right, left
                if (
                    left.column in t1.schema
                    and right.column in t2.schema
                    and not t1.schema[left.column].is_bounded
                    and not t2.schema[right.column].is_bounded
                    and left.scale == right.scale == 1.0
                    and left.offset == right.offset == 0.0
                ):
                    return (left.column, right.column)
        return None

    return find(predicate)


def _key_values(table: Table, column: str) -> np.ndarray:
    store = table.columns
    if store.is_text(column):
        return store.objects(column)
    return store.endpoints(column)[0]


def _matching_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` with ``left_keys[i] == right_keys[j]``.

    Ordered by ``i``, then ``j``: the stable sort keeps equal right keys
    in position order, so each left tuple's matches come out ascending.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    first = np.searchsorted(sorted_keys, left_keys, side="left")
    counts = np.searchsorted(sorted_keys, left_keys, side="right") - first
    left = np.repeat(np.arange(len(left_keys)), counts)
    # The m-th match of a left tuple sits at ``first + m`` in sorted order.
    nth_match = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    return left, order[np.repeat(first, counts) + nth_match]


def _cross_product(sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Every combination of positions, the last table varying fastest."""
    index = []
    inner = math.prod(sizes)
    outer = 1
    for n in sizes:
        inner = inner // n if n else 0
        index.append(np.tile(np.repeat(np.arange(n), inner), outer))
        outer *= n
    return tuple(index)


def pair_index(
    tables: Sequence[Table], predicate: Predicate
) -> tuple[np.ndarray, ...]:
    """Tuple-order positions of every candidate joined tuple, per table.

    Left table in tuple-id order, each left tuple's partners in tuple-id
    order.  With an exact-column equality in the condition (the common
    foreign-key case) only key-matching pairs are candidates.
    """
    key_pair = _equality_key_columns(predicate, tables)
    if key_pair is not None:
        t1, t2 = tables
        left_keys = _key_values(t1, key_pair[0])
        right_keys = _key_values(t2, key_pair[1])
        # A text key never equals a numeric one; leave that comparison to
        # the evaluator, which reports it.
        if left_keys.dtype == right_keys.dtype:
            return _matching_pairs(left_keys, right_keys)
    return _cross_product([len(t) for t in tables])


def join_pairs(
    tables: Sequence[Table], predicate: Predicate | None = None
) -> tuple[JoinedColumns, np.ndarray]:
    """The joined tuples possibly in the join, and which are only possibly.

    One dense sweep of the join condition over the candidates; pairs that
    are certainly not joined (T−) are dropped.  Returns the survivors and
    a boolean mask over them: True for T?, False for T+.
    """
    predicate = predicate if predicate is not None else TruePredicate()
    candidates = JoinedColumns(tables, pair_index(tables, predicate))
    certain, possible = classify_masks(candidates, predicate)
    return candidates.take(possible), np.logical_not(certain[possible])
