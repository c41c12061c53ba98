"""Compilation of parsed statements into executable query plans.

The compiler resolves table and column names against a catalog, validates
the aggregate/column combination, and packages everything the executor
needs.  Four plan shapes exist, one per statement class:

* :class:`QueryPlan` — the paper's §4 single-table template;
* :class:`JoinQueryPlan` — multi-table statements (§7);
* :class:`GroupByQueryPlan` — ``GROUP BY`` over exact columns (§8.1);
* :class:`TopNQueryPlan` — the ``TOPN(n, column)`` extension (§8.1).

All four share the accessors the service layer keys on
(``tables``/``table_names``/``column_key``/``cache_extra``), so admission,
routing, result caching, and the step protocol treat every statement
class alike, and each names the ``(table, column)`` pairs its execution
reads (``columns_read``) — what the cache must bring up to the current
time before the plan runs, and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.constraints import AbsolutePrecision
from repro.errors import SqlSyntaxError, UnknownColumnError
from repro.predicates.ast import Predicate, columns_of
from repro.sql.ast import SelectStatement
from repro.storage.catalog import Catalog
from repro.storage.table import Table

__all__ = [
    "QueryPlan",
    "JoinQueryPlan",
    "GroupByQueryPlan",
    "TopNQueryPlan",
    "AnyQueryPlan",
    "compile_statement",
]


class _SingleTablePlan:
    """The accessors every single-table plan shares."""

    __slots__ = ()

    @property
    def tables(self) -> tuple[Table, ...]:
        return (self.table,)

    @property
    def table_names(self) -> tuple[str, ...]:
        return (self.table.name,)

    @property
    def column_key(self):
        return self.column


@dataclass(frozen=True, slots=True)
class QueryPlan(_SingleTablePlan):
    """A resolved single-table aggregation query, ready for the executor."""

    #: Label of the serving histograms (``class``).
    statement_class: ClassVar[str] = "aggregate"

    table: Table
    aggregate: str
    column: str | None
    constraint: AbsolutePrecision
    predicate: Predicate

    @property
    def columns_read(self) -> tuple[tuple[str, str], ...]:
        return _columns_read(self.table, self.column, self.predicate)

    @property
    def cache_extra(self):
        return None


@dataclass(frozen=True, slots=True)
class JoinQueryPlan:
    """A resolved multi-table aggregation query (§7)."""

    #: Label of the serving histograms (``class``).
    statement_class: ClassVar[str] = "join"

    tables: tuple[Table, ...]
    aggregate: str
    #: (table name, column name) of the aggregation target.
    column: tuple[str, str] | None
    constraint: AbsolutePrecision
    predicate: Predicate

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    @property
    def column_key(self):
        return self.column

    @property
    def columns_read(self) -> tuple[tuple[str, str], ...]:
        """Every bounded column of every joined table: a greedy round
        offers a base tuple only while *some* bounded column of it is
        wide (:func:`repro.joins.refresh.join_steps`)."""
        return tuple(
            (table.name, column.name)
            for table in self.tables
            for column in table.schema.bounded_columns
        )

    @property
    def cache_extra(self):
        return None


@dataclass(frozen=True, slots=True)
class GroupByQueryPlan(_SingleTablePlan):
    """A resolved ``GROUP BY`` query over exact grouping columns (§8.1)."""

    #: Label of the serving histograms (``class``).
    statement_class: ClassVar[str] = "groupby"

    table: Table
    group_by: tuple[str, ...]
    aggregate: str
    column: str | None
    constraint: AbsolutePrecision
    predicate: Predicate

    @property
    def columns_read(self) -> tuple[tuple[str, str], ...]:
        return _columns_read(
            self.table, self.column, self.predicate, self.group_by
        )

    @property
    def cache_extra(self):
        return ("GROUP BY",) + self.group_by


@dataclass(frozen=True, slots=True)
class TopNQueryPlan(_SingleTablePlan):
    """A resolved ``TOPN(n, column)`` query (§8.1)."""

    #: Label of the serving histograms (``class``).
    statement_class: ClassVar[str] = "topn"

    table: Table
    n: int
    column: str
    constraint: AbsolutePrecision
    predicate: Predicate
    aggregate: str = "TOPN"

    @property
    def columns_read(self) -> tuple[tuple[str, str], ...]:
        return _columns_read(self.table, self.column, self.predicate)

    @property
    def cache_extra(self):
        return ("TOPN", self.n)


AnyQueryPlan = QueryPlan | JoinQueryPlan | GroupByQueryPlan | TopNQueryPlan


def _columns_read(
    table: Table,
    column: str | None,
    predicate: Predicate,
    group_by: tuple[str, ...] = (),
) -> tuple[tuple[str, str], ...]:
    """A single-table plan's ``(table, column)`` reads: the aggregated
    column, the predicate's columns and the grouping columns, sorted."""
    names = columns_of(predicate).union(group_by)
    if column is not None:
        names.add(column)
    return tuple((table.name, name) for name in sorted(names))


def compile_statement(
    statement: SelectStatement, catalog: Catalog
) -> AnyQueryPlan:
    """Resolve names and produce an executable plan."""
    if statement.is_join:
        if statement.group_by:
            raise SqlSyntaxError("GROUP BY is not supported on join queries")
        if statement.top_n is not None:
            raise SqlSyntaxError("TOPN is not supported on join queries")
        return _compile_join(statement, catalog)
    table = catalog.table(statement.table)

    column = statement.column
    if column is not None:
        spec = table.schema.column(column)
        if not spec.is_numeric:
            raise SqlSyntaxError(
                f"cannot aggregate non-numeric column {column!r}"
            )
    elif statement.aggregate != "COUNT":
        raise SqlSyntaxError(f"{statement.aggregate} requires a column argument")

    for name in columns_of(statement.predicate):
        table.schema.column(name)  # raises UnknownColumnError

    if statement.top_n is not None:
        assert column is not None  # the parser requires TOPN(n, column)
        _require_exact_predicate(statement, table, "TOPN")
        return TopNQueryPlan(
            table=table,
            n=statement.top_n,
            column=column,
            constraint=AbsolutePrecision(statement.within),
            predicate=statement.predicate,
        )

    if statement.group_by:
        for name in statement.group_by:
            spec = table.schema.column(name)
            if spec.is_bounded:
                raise SqlSyntaxError(
                    f"cannot group on bounded column {name!r}; grouping "
                    "keys must be exact (§8.1 leaves bounded grouping open)"
                )
        return GroupByQueryPlan(
            table=table,
            group_by=statement.group_by,
            aggregate=statement.aggregate,
            column=column,
            constraint=AbsolutePrecision(statement.within),
            predicate=statement.predicate,
        )

    return QueryPlan(
        table=table,
        aggregate=statement.aggregate,
        column=column,
        constraint=AbsolutePrecision(statement.within),
        predicate=statement.predicate,
    )


def _require_exact_predicate(
    statement: SelectStatement, table: Table, feature: str
) -> None:
    """§8.1 extensions filter rows two-valued before ranking.

    A predicate over bounded columns would make row membership itself
    uncertain, which the TOPN formulation does not model; restrict the
    filter to exact columns so it can be evaluated up front.
    """
    for name in columns_of(statement.predicate):
        if table.schema[name].is_bounded:
            raise SqlSyntaxError(
                f"{feature} supports filtering on exact columns only; "
                f"predicate reads bounded column {name!r}"
            )


def _compile_join(statement: SelectStatement, catalog: Catalog) -> JoinQueryPlan:
    tables = tuple(catalog.table(name) for name in statement.tables)
    by_name = {t.name: t for t in tables}

    column: tuple[str, str] | None = None
    if statement.column is not None:
        owners = [t.name for t in tables if statement.column in t.schema]
        if not owners:
            raise UnknownColumnError(statement.column)
        if len(owners) > 1:
            raise SqlSyntaxError(
                f"column {statement.column!r} is ambiguous across "
                f"{', '.join(owners)}"
            )
        column = (owners[0], statement.column)
    elif statement.aggregate != "COUNT":
        raise SqlSyntaxError(f"{statement.aggregate} requires a column argument")

    for name in columns_of(statement.predicate):
        if not any(name in t.schema for t in by_name.values()):
            raise UnknownColumnError(name)

    return JoinQueryPlan(
        tables=tables,
        aggregate=statement.aggregate,
        column=column,
        constraint=AbsolutePrecision(statement.within),
        predicate=statement.predicate,
    )
