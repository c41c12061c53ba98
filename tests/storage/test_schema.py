"""Unit tests for schemas and columns."""

import pytest

from repro.core.bound import Bound
from repro.errors import SchemaError, UnknownColumnError
from repro.storage.schema import Column, ColumnKind, Schema


class TestColumn:
    def test_kinds(self):
        assert Column("a").kind is ColumnKind.BOUNDED
        assert Column("a", ColumnKind.EXACT).is_numeric
        assert not Column("a", ColumnKind.TEXT).is_numeric
        assert Column("a").is_bounded

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")
        with pytest.raises(SchemaError):
            Column("has space")

    def test_validate_text(self):
        col = Column("t", ColumnKind.TEXT)
        col.validate("hello")
        with pytest.raises(SchemaError):
            col.validate(5)

    def test_validate_exact(self):
        col = Column("e", ColumnKind.EXACT)
        col.validate(5)
        col.validate(5.5)
        with pytest.raises(SchemaError):
            col.validate("text")
        with pytest.raises(SchemaError):
            col.validate(True)  # bools are not numbers here
        with pytest.raises(SchemaError):
            col.validate(Bound(0, 1))

    def test_validate_bounded_accepts_both(self):
        col = Column("b")
        col.validate(Bound(0, 1))
        col.validate(5.0)
        with pytest.raises(SchemaError):
            col.validate("text")

    @pytest.mark.parametrize("kind", [ColumnKind.EXACT, ColumnKind.BOUNDED])
    def test_numeric_columns_reject_nan_and_keep_infinities(self, kind):
        import numpy as np

        col = Column("n", kind)
        for nan in (float("nan"), -float("nan"), np.float64("nan")):
            with pytest.raises(SchemaError, match="NaN"):
                col.validate(nan)
        for legal in (float("inf"), float("-inf"), 0.0, -0.0, np.float64(2.5), 7):
            col.validate(legal)  # a Bound allows infinite endpoints too
        with pytest.raises(SchemaError):
            col.validate(True)
        Column("t", ColumnKind.TEXT).validate("nan")


class TestSchema:
    def test_construction_and_lookup(self):
        s = Schema([Column("a"), Column("b", ColumnKind.EXACT)])
        assert len(s) == 2
        assert "a" in s
        assert s["a"].is_bounded
        assert s.column_names == ("a", "b")
        assert [c.name for c in s.bounded_columns] == ["a"]

    def test_derived_views_are_computed_once(self):
        s = Schema.of(id="exact", price="bounded", name="text")
        assert s.column_names is s.column_names
        assert s.bounded_columns is s.bounded_columns

    def test_of_factory(self):
        s = Schema.of(id="exact", price="bounded", name="text")
        assert s["id"].kind is ColumnKind.EXACT
        assert s["price"].kind is ColumnKind.BOUNDED
        assert s["name"].kind is ColumnKind.TEXT

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a"), Column("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_unknown_column_error(self):
        s = Schema.of(a="exact")
        with pytest.raises(UnknownColumnError):
            s["missing"]

    def test_validate_values(self):
        s = Schema.of(a="exact", b="bounded")
        s.validate_values({"a": 1, "b": Bound(0, 1)})
        with pytest.raises(SchemaError):
            s.validate_values({"a": 1})  # missing b
        with pytest.raises(SchemaError):
            s.validate_values({"a": 1, "b": Bound(0, 1), "c": 2})  # extra

    def test_equality_and_hash(self):
        s1 = Schema.of(a="exact")
        s2 = Schema.of(a="exact")
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1 != Schema.of(a="bounded")
