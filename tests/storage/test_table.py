"""Unit tests for Table and Catalog."""

import math

import numpy as np
import pytest

from repro.core.bound import Bound
from repro.errors import DuplicateKeyError, SchemaError, TrappError, UnknownTableError
from repro.replication.system import TrappSystem
from repro.storage.catalog import Catalog
from repro.storage.columnar import harvest_candidates
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.telemetry import MetricsRegistry, register_system_collectors


@pytest.fixture
def table():
    t = Table("t", Schema.of(id="exact", x="bounded"))
    t.insert({"id": 1, "x": Bound(0, 10)})
    t.insert({"id": 2, "x": Bound(5, 6)})
    return t


class TestTable:
    def test_insert_assigns_sequential_tids(self, table):
        assert table.tids() == [1, 2]
        row = table.insert({"id": 3, "x": 1.0})
        assert row.tid == 3

    def test_insert_with_explicit_tid(self, table):
        row = table.insert({"id": 9, "x": 1.0}, tid=100)
        assert row.tid == 100
        next_row = table.insert({"id": 10, "x": 1.0})
        assert next_row.tid == 101

    def test_duplicate_tid_rejected(self, table):
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 9, "x": 1.0}, tid=1)

    def test_schema_validation_on_insert(self, table):
        with pytest.raises(SchemaError):
            table.insert({"id": "not-a-number", "x": 1.0})
        with pytest.raises(SchemaError):
            table.insert({"id": 1})

    def test_row_access_and_errors(self, table):
        assert table.row(1)["id"] == 1
        with pytest.raises(TrappError):
            table.row(99)
        assert 1 in table
        assert 99 not in table

    def test_delete(self, table):
        table.delete(1)
        assert table.tids() == [2]
        with pytest.raises(TrappError):
            table.delete(1)

    def test_update_value_validates(self, table):
        table.update_value(1, "x", Bound(2, 3))
        assert table.row(1).bound("x") == Bound(2, 3)
        with pytest.raises(SchemaError):
            table.update_value(1, "x", "bad")

    @pytest.mark.parametrize(
        "column, bad",
        [
            pytest.param("id", float("nan"), id="id"),
            pytest.param("x", float("nan"), id="x"),
            pytest.param("id", 10**400, id="id-huge_int"),
            pytest.param("x", 10**400, id="x-huge_int"),
        ],
    )
    def test_nan_is_rejected_before_anything_is_touched(self, table, column, bad):
        """NaN endpoints poison every later bound sync and the
        ``searchsorted`` windows of the endpoint orders; an ``int`` too
        large for float64 must not get halfway into the store either."""
        message = "NaN" if bad != bad else "float64"
        store = table.columns
        order = store.endpoint_order(column, "lo")
        before = (
            table.tids(), store.version, store.layout_version,
            store.non_exact_count("x"),
            [array.tolist() for array in store.endpoints(column)],
            table.row(1).as_dict(),
        )
        with pytest.raises(SchemaError, match=message):
            table.insert({"id": 3, "x": 1.0} | {column: bad})
        with pytest.raises(SchemaError, match=message):
            table.update_value(1, column, bad)
        assert before == (
            table.tids(), store.version, store.layout_version,
            store.non_exact_count("x"),
            [array.tolist() for array in store.endpoints(column)],
            table.row(1).as_dict(),
        )
        assert store.column_exact("id") and not order.dirty and not order.stale
        assert table.insert({"id": 3, "x": float("inf")}).tid == 3  # not burnt
        # A wide cell ahead of the bad one must not be counted either.
        wide = Table("w", Schema.of(a="bounded", b="bounded"))
        with pytest.raises(SchemaError, match=message):
            wide.insert({"a": Bound(0, 5), "b": bad})
        assert len(wide) == 0 and wide.column_exact("a")

    def test_update_value_keeps_indexes_synced(self, table):
        before = table.columns.endpoint_order("x", "hi")
        assert before.keys[-1] == 10.0
        table.update_value(1, "x", Bound(100, 200))
        after = table.columns.endpoint_order("x", "hi")
        assert (after.keys[-1], after.tids[-1]) == (200.0, 1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_an_exact_infinite_cell_is_zero_wide(self, table, value):
        """Every width the store computes follows ``Bound.width``: an
        exact cell is 0 wide whatever its value.  ``inf - inf`` used to
        give an exact ±inf cell width NaN — a ``RuntimeWarning``, and a key
        sorted after every finite one."""
        store = table.columns
        store.width_order("x")
        table.update_value(2, "x", value)
        assert table.row(2).bound("x").width == 0.0
        repaired = store.width_order("x")  # one dirty tuple spliced back
        rebuilt = table.copy().columns.width_order("x")
        for order in (repaired, rebuilt):
            assert order.keys.tolist() == [0.0, 10.0]
            assert order.tids.tolist() == [2, 1]
            assert order.keys_by_tid.tolist() == [10.0, 0.0]
        both = (np.array([0, 1]), np.array([], dtype=np.int64))
        harvested = harvest_candidates(store, "x", np.ones(2), positions=both)
        assert harvested.widths.tolist() == [10.0, 0.0]

    def test_the_width_histogram_counts_an_exact_infinite_cell_at_zero(self):
        system = TrappSystem()
        source = system.add_source("s")
        source.add_table(Table("t", Schema.of(x="bounded")))
        source.insert_row("t", {"x": 1.0})
        cache = system.add_cache("c")
        cache.subscribe_table(source, "t")
        cache.table("t").update_value(1, "x", math.inf)
        registry = MetricsRegistry()
        register_system_collectors(registry, system)
        [family] = [
            entry for entry in registry.snapshot()["families"]
            if entry["name"] == "trapp_bound_width"
        ]
        [sample] = family["samples"]
        assert (sample["sum"], sample["count"]) == (0.0, 1)

    def test_column_bounds_view(self, table):
        bounds = table.column_bounds("x")
        assert bounds[1] == Bound(0, 10)
        assert bounds[2] == Bound(5, 6)

    def test_copy_is_deep(self, table):
        clone = table.copy("t2")
        clone.update_value(1, "x", Bound(7, 8))
        assert table.row(1).bound("x") == Bound(0, 10)
        assert clone.name == "t2"
        assert len(clone) == len(table)

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0

    def test_insert_many(self):
        t = Table("t", Schema.of(x="bounded"))
        rows = t.insert_many([{"x": 1.0}, {"x": 2.0}])
        assert [r.tid for r in rows] == [1, 2]


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        t = catalog.create_table("t", Schema.of(x="bounded"))
        assert catalog.table("t") is t
        assert "t" in catalog
        assert catalog.names() == ["t"]

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(x="bounded"))
        with pytest.raises(TrappError):
            catalog.create_table("t", Schema.of(x="bounded"))

    def test_register_existing(self):
        catalog = Catalog()
        t = Table("t", Schema.of(x="bounded"))
        catalog.register(t)
        assert catalog.table("t") is t

    def test_unknown_and_drop(self):
        catalog = Catalog()
        with pytest.raises(UnknownTableError):
            catalog.table("nope")
        catalog.create_table("t", Schema.of(x="bounded"))
        catalog.drop_table("t")
        with pytest.raises(UnknownTableError):
            catalog.drop_table("t")
