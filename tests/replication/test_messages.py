"""Unit tests for protocol message types and error hierarchy corners."""

import pytest

import numpy as np

from repro.bounds.functions import LinearShape, SqrtShape
from repro.errors import (
    SqlSyntaxError,
    TrappError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.replication.messages import (
    CardinalityChange,
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)


class TestObjectKey:
    def test_identity_and_hash(self):
        a = ObjectKey("links", 1, "latency")
        b = ObjectKey("links", 1, "latency")
        c = ObjectKey("links", 2, "latency")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert str(a) == "links#1.latency"

    def test_usable_in_sets(self):
        keys = {ObjectKey("t", 1, "x"), ObjectKey("t", 1, "x"), ObjectKey("t", 2, "x")}
        assert len(keys) == 2

    def test_is_a_tuple_of_its_three_fields(self):
        """Hashing and equality run in C: the key is a tuple subclass."""
        key = ObjectKey(table="links", tid=1, column="latency")
        assert isinstance(key, tuple)
        assert key == ObjectKey("links", 1, "latency")
        table, tid, column = key
        assert (table, tid, column) == (key.table, key.tid, key.column)
        assert type(key).__hash__ is tuple.__hash__
        assert type(key).__eq__ is tuple.__eq__
        assert repr(key) == "ObjectKey(table='links', tid=1, column='latency')"
        assert str(key) == "links#1.latency"
        with pytest.raises(AttributeError):
            key.tid = 2


class TestMessages:
    def test_refresh_request_names_a_table_and_tids(self):
        request = RefreshRequest(cache_id="c1", table="t", tids=(1, 2))
        assert request.cache_id == "c1"
        assert (request.table, request.tids) == ("t", (1, 2))

    def test_column_refresh_and_reason(self):
        column = ColumnRefresh("t", "x", (1, 2), np.array([5.0, 6.0]), np.array([1.0, 0.5]))
        refresh = Refresh(
            "s", RefreshReason.QUERY_INITIATED, (column,), 3.0, SqrtShape()
        )
        assert refresh.reason is RefreshReason.QUERY_INITIATED
        assert refresh.columns[0].values.tolist() == [5.0, 6.0]
        assert refresh.refreshed_at == 3.0

    def test_refresh_and_column_refresh_are_tuples_of_their_fields(self):
        """Built once per push on the write path: constructed in C."""
        column = ColumnRefresh(
            table="t", column="x", tids=(1,), values=(5.0,), widths=(1.0,)
        )
        assert isinstance(column, tuple)
        assert ColumnRefresh._fields == ("table", "column", "tids", "values", "widths")
        assert column == ColumnRefresh("t", "x", (1,), (5.0,), (1.0,))
        table, name, tids, values, widths = column
        assert (table, name, tids, values, widths) == ("t", "x", (1,), (5.0,), (1.0,))
        refresh = Refresh(
            source_id="s", reason=RefreshReason.VALUE_INITIATED, columns=(column,),
            refreshed_at=2.0, shape=LinearShape(),
        )
        assert isinstance(refresh, tuple)
        assert Refresh._fields == (
            "source_id", "reason", "columns", "refreshed_at", "shape"
        )
        assert refresh == Refresh(
            "s", RefreshReason.VALUE_INITIATED, (column,), 2.0, LinearShape()
        )
        assert refresh._replace(refreshed_at=4.0).refreshed_at == 4.0
        for message in (column, refresh):
            with pytest.raises(AttributeError):
                message.table = "u"
        with pytest.raises(TypeError):
            Refresh("s", RefreshReason.VALUE_INITIATED, (column,), 2.0)  # no defaults
        # The cache dispatches on the class, never on tuple-ness.
        assert not isinstance(RefreshRequest("c", "t", (1,)), tuple)
        assert not isinstance(CardinalityChange("s", "t", 1), tuple)

    def test_cardinality_change_flags(self):
        insert = CardinalityChange("s", "t", 7, values={"x": 1.0})
        delete = CardinalityChange("s", "t", 7, values=None)
        assert insert.is_insert
        assert not delete.is_insert


class TestErrorHierarchy:
    def test_everything_derives_from_trapp_error(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not TrappError:
                    assert issubclass(obj, TrappError), name

    def test_unknown_column_message(self):
        err = UnknownColumnError("ghost", table="links")
        assert "ghost" in str(err)
        assert "links" in str(err)
        assert err.column == "ghost"

    def test_unknown_table_message(self):
        err = UnknownTableError("ghosts")
        assert err.table == "ghosts"

    def test_sql_syntax_error_position(self):
        err = SqlSyntaxError("bad token", position=17)
        assert "17" in str(err)
        assert err.position == 17


class TestWorkloadSpecRendering:
    def test_query_spec_str(self):
        from repro.predicates.parser import parse_predicate
        from repro.workloads.queries import QuerySpec

        spec = QuerySpec("SUM", "x", 5.0, parse_predicate("x > 3"))
        text = str(spec)
        assert "SUM(x)" in text
        assert "WITHIN 5" in text
        assert "WHERE" in text
        bare = QuerySpec("COUNT", None, 2.0)
        assert "COUNT(*)" in str(bare)

    def test_select_statement_str_join(self):
        from repro.sql.parser import parse_statement

        stmt = parse_statement("SELECT SUM(a) FROM t1, t2 WHERE x = y")
        text = str(stmt)
        assert "t1, t2" in text
        assert "WITHIN" not in text  # infinite constraint omitted
