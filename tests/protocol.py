"""Calling the served aggregate protocol on hand-written rows.

``AggregateSpec`` and ``ChooseRefresh`` read a table's column arrays and
a ``(T+, T?)`` pair of tuple-order positions.  The paper's worked
examples and the containment / guarantee / optimality properties are
stated on a handful of rows and explicit T+ / T? sets; these helpers
turn those into the table and the pair, so that what they check is the
code that serves and not the row oracle.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.bound import Bound
from repro.core.refresh.base import CostFunc, RefreshPlan, uniform_cost
from repro.core.refresh.costs import (
    ColumnCostModel,
    PerSourceCostModel,
    TableCostModel,
    UniformCostModel,
)
from repro.predicates.ast import Predicate
from repro.predicates.batch import ColumnarClassification, classify_report
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table

Pair = tuple[np.ndarray, np.ndarray]

X_SCHEMA = Schema.of(x="bounded")


def table_of(rows: Iterable[Row], schema: Schema = X_SCHEMA) -> Table:
    """A table holding a copy of each row under the row's own tuple id."""
    table = Table("t", schema)
    for row in rows:
        table.insert(row.as_dict(), tid=row.tid)
    return table


def partitioned(plus=(), maybe=(), minus=()) -> tuple[Table, Pair]:
    """Bounds on ``x`` listed by class: the table holding them (tuple ids
    1, 2, … in T+, T?, T− order) and its ``(T+, T?)`` pair."""
    bounds = [*plus, *maybe, *minus]
    table = table_of(Row(tid, {"x": b}) for tid, b in enumerate(bounds, start=1))
    cut = len(plus)
    return table, (np.arange(cut), np.arange(cut, cut + len(maybe)))


def pair_of(table: Table, plus: Iterable[int], maybe: Iterable[int] = ()) -> Pair:
    """The ``(T+, T?)`` position pair naming the given tuple ids."""
    tids = table.columns.sorted_tids()
    return (
        np.searchsorted(tids, sorted(plus)),
        np.searchsorted(tids, sorted(maybe)),
    )


def classified(table: Table, predicate: Predicate) -> Pair:
    """The served classifier's ``(T+, T?)`` pair."""
    return classify_report(table.columns, predicate).positions


def tids_at(table: Table, positions: np.ndarray) -> set[int]:
    return set(table.columns.sorted_tids()[positions].tolist())


def labels_of(table: Table, pair: Pair) -> dict[int, str]:
    """Each tuple id's class under ``pair``: ``T+``, ``T?`` or ``T-``."""
    labels = dict.fromkeys(table.tids(), "T-")
    labels.update(dict.fromkeys(tids_at(table, pair[0]), "T+"))
    labels.update(dict.fromkeys(tids_at(table, pair[1]), "T?"))
    return labels


def row_cost(cost: CostFunc) -> Callable[[Row], float]:
    """``cost`` as a function of one row — what the row oracles under
    ``tests/oracle/`` price with.  Each built-in model is spelled out here
    a second time, by hand; anything else already is such a function."""
    if isinstance(cost, UniformCostModel):
        return lambda row: cost.cost
    if isinstance(cost, ColumnCostModel):
        return lambda row: float(row.number(cost.column))
    if isinstance(cost, PerSourceCostModel):
        return lambda row: float(
            cost.costs_by_source.get(
                row.get(cost.source_column, None), cost.default_cost
            )
        )
    if isinstance(cost, TableCostModel):
        return lambda row: float(cost.costs.get(row.tid, cost.default_cost))
    return cost


def bound_of(
    spec,
    table: Table,
    column: str | None,
    pair: Pair | None = None,
    predicate: Predicate | None = None,
) -> Bound:
    """The aggregate's bounded answer over the whole table (§5), or over
    ``pair`` (§6) — Appendix-D-refined when the predicate is given."""
    if pair is None:
        return spec.bound_without_predicate(table.columns, column)
    cc = ColumnarClassification.from_positions(table.columns, pair, column, predicate)
    return spec.bound_with_classification(cc, column)


def plan_of(
    chooser,
    table: Table,
    column: str | None,
    max_width: float,
    cost: CostFunc = uniform_cost,
    pair: Pair | None = None,
    predicate: Predicate | None = None,
) -> RefreshPlan:
    """The chooser's plan over the whole table (§5) or over ``pair`` (§6)."""
    if pair is None:
        plan, _ = chooser.without_predicate(table, column, max_width, cost)
    else:
        plan, _ = chooser.with_classification(
            table, pair, column, max_width, cost, predicate
        )
    return plan
