"""Unit tests for statement compilation against a catalog."""

import pytest

from repro.errors import SqlSyntaxError, UnknownColumnError, UnknownTableError
from repro.sql.compiler import JoinQueryPlan, QueryPlan, compile_statement
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.workloads.netmon import LINKS_SCHEMA


@pytest.fixture
def catalog():
    c = Catalog()
    c.create_table("links", LINKS_SCHEMA)
    c.create_table(
        "nodes", Schema.of(id="exact", region="text", load="bounded")
    )
    return c


class TestCompile:
    def test_single_table(self, catalog):
        plan = compile_statement(
            parse_statement("SELECT AVG(latency) WITHIN 5 FROM links"), catalog
        )
        assert isinstance(plan, QueryPlan)
        assert plan.table.name == "links"
        assert plan.aggregate == "AVG"
        assert plan.column == "latency"
        assert plan.constraint.width == 5.0

    def test_unknown_table(self, catalog):
        with pytest.raises(UnknownTableError):
            compile_statement(parse_statement("SELECT COUNT(*) FROM ghosts"), catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(UnknownColumnError):
            compile_statement(
                parse_statement("SELECT SUM(ghost) FROM links"), catalog
            )

    def test_unknown_predicate_column(self, catalog):
        with pytest.raises(UnknownColumnError):
            compile_statement(
                parse_statement("SELECT COUNT(*) FROM links WHERE ghost > 1"),
                catalog,
            )

    def test_text_column_not_aggregatable(self, catalog):
        with pytest.raises(SqlSyntaxError):
            compile_statement(
                parse_statement("SELECT SUM(region) FROM nodes"), catalog
            )

    def test_non_count_requires_column(self, catalog):
        # Grammar already enforces this; compiler double-checks AST inputs.
        from repro.sql.ast import SelectStatement

        stmt = SelectStatement(
            aggregate="SUM", column=None, tables=("links",), within=5.0
        )
        with pytest.raises(SqlSyntaxError):
            compile_statement(stmt, catalog)

    def test_join_plan(self, catalog):
        plan = compile_statement(
            parse_statement(
                "SELECT SUM(load) WITHIN 5 FROM links, nodes "
                "WHERE to_node = id"
            ),
            catalog,
        )
        assert isinstance(plan, JoinQueryPlan)
        assert plan.column == ("nodes", "load")
        assert [t.name for t in plan.tables] == ["links", "nodes"]

    def test_join_ambiguous_column(self, catalog):
        catalog.create_table("nodes2", Schema.of(load="bounded"))
        with pytest.raises(SqlSyntaxError):
            compile_statement(
                parse_statement("SELECT SUM(load) FROM nodes, nodes2"), catalog
            )

    def test_join_unknown_column(self, catalog):
        with pytest.raises(UnknownColumnError):
            compile_statement(
                parse_statement("SELECT SUM(ghost) FROM links, nodes"), catalog
            )


class TestExtendedSurface:
    def test_group_by_plan(self, catalog):
        from repro.sql.compiler import GroupByQueryPlan

        plan = compile_statement(
            parse_statement(
                "SELECT SUM(traffic) WITHIN 5 FROM links GROUP BY from_node"
            ),
            catalog,
        )
        assert isinstance(plan, GroupByQueryPlan)
        assert plan.group_by == ("from_node",)
        assert plan.table_names == ("links",)
        assert plan.cache_extra == ("GROUP BY", "from_node")

    def test_group_by_column_must_be_exact(self, catalog):
        with pytest.raises(SqlSyntaxError):
            compile_statement(
                parse_statement("SELECT SUM(traffic) FROM links GROUP BY latency"),
                catalog,
            )

    def test_group_by_rejected_on_joins(self, catalog):
        with pytest.raises(SqlSyntaxError):
            compile_statement(
                parse_statement(
                    "SELECT SUM(load) FROM links, nodes GROUP BY to_node"
                ),
                catalog,
            )

    def test_topn_plan(self, catalog):
        from repro.sql.compiler import TopNQueryPlan

        plan = compile_statement(
            parse_statement("SELECT TOPN(3, traffic) WITHIN 5 FROM links"),
            catalog,
        )
        assert isinstance(plan, TopNQueryPlan)
        assert plan.n == 3
        assert plan.cache_extra == ("TOPN", 3)

    def test_topn_requires_exact_predicate(self, catalog):
        with pytest.raises(SqlSyntaxError):
            compile_statement(
                parse_statement(
                    "SELECT TOPN(3, traffic) FROM links WHERE latency > 2"
                ),
                catalog,
            )

    def test_plan_accessors_uniform(self, catalog):
        single = compile_statement(
            parse_statement("SELECT SUM(traffic) WITHIN 5 FROM links"), catalog
        )
        join = compile_statement(
            parse_statement(
                "SELECT SUM(load) WITHIN 5 FROM links, nodes WHERE to_node = id"
            ),
            catalog,
        )
        assert single.table_names == ("links",)
        assert single.column_key == "traffic"
        assert single.cache_extra is None
        assert join.table_names == ("links", "nodes")
        assert join.column_key == ("nodes", "load")
        assert join.cache_extra is None

    def test_columns_read(self, catalog):
        def reads(sql):
            return compile_statement(parse_statement(sql), catalog).columns_read

        links = catalog.table("links")
        assert reads("SELECT COUNT(*) FROM links") == ()
        assert reads("SELECT SUM(traffic) FROM links WHERE latency < 5") == (
            ("links", "latency"), ("links", "traffic"),
        )
        assert reads("SELECT SUM(traffic) FROM links GROUP BY from_node") == (
            ("links", "from_node"), ("links", "traffic"),
        )
        assert reads("SELECT TOPN(2, traffic) FROM links WHERE cost > 1") == (
            ("links", "cost"), ("links", "traffic"),
        )
        # A join's greedy pick reads every bounded column of its tables.
        joined = compile_statement(
            parse_statement(
                "SELECT SUM(load) WITHIN 5 FROM links, nodes WHERE to_node = id"
            ),
            catalog,
        )
        assert joined.columns_read == tuple(
            ("links", c.name) for c in links.schema.bounded_columns
        ) + (("nodes", "load"),)
        assert joined.tables == (links, catalog.table("nodes"))
