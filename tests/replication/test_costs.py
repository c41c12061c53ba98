"""Unit tests for refresh cost models."""

import pytest

from repro.core.bound import Bound
from repro.core.refresh.base import cost_from_sources, vector_cost_of
from repro.errors import TrappError
from repro.extensions.batching import BatchedCostModel
from repro.replication.costs import (
    ColumnCostModel,
    PerSourceCostModel,
    TableCostModel,
    UniformCostModel,
)
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table


def row(**values):
    return Row(1, values)


class TestCostModels:
    def test_uniform(self):
        model = UniformCostModel(3.0)
        assert model.cost_of(row(a=1)) == 3.0
        assert UniformCostModel().cost_of(row(a=1)) == 1.0

    def test_column(self):
        model = ColumnCostModel("cost")
        assert model.cost_of(row(cost=7.0)) == 7.0

    def test_per_source(self):
        model = PerSourceCostModel(
            costs_by_source={"near": 1.0, "far": 9.0}, default_cost=4.0
        )
        assert model.cost_of(row(source="near")) == 1.0
        assert model.cost_of(row(source="far")) == 9.0
        assert model.cost_of(row(source="unknown")) == 4.0

    def test_per_source_custom_extractor(self):
        model = PerSourceCostModel(
            costs_by_source={"n5": 2.0},
            source_of=lambda r: f"n{int(r['to_node'])}",
        )
        assert model.cost_of(row(to_node=5)) == 2.0

    def test_table(self):
        model = TableCostModel({1: 5.0}, default_cost=2.0)
        assert model.cost_of(row()) == 5.0
        assert model.cost_of(Row(99, {})) == 2.0

    def test_table_missing_without_default_raises(self):
        model = TableCostModel({})
        with pytest.raises(TrappError):
            model.cost_of(row())

    def test_as_func_adapter(self):
        func = UniformCostModel(2.5).as_func()
        assert func(row()) == 2.5


class TestPerSourceVectorTag:
    """The satellite fix: per-source models plan columnar when their
    source id lives in a column."""

    def test_as_func_carries_source_tag(self):
        model = PerSourceCostModel(
            costs_by_source={"near": 1.0, "far": 9.0},
            default_cost=4.0,
            source_column="origin",
        )
        func = model.as_func()
        assert vector_cost_of(func) == (
            "source",
            ("origin", {"near": 1.0, "far": 9.0}, 4.0),
        )
        assert func(row(origin="far")) == 9.0

    def test_custom_extractor_stays_untagged(self):
        model = PerSourceCostModel(
            costs_by_source={"n5": 2.0},
            source_of=lambda r: f"n{int(r['to_node'])}",
        )
        assert vector_cost_of(model.as_func()) is None
        assert model.as_func()(row(to_node=5)) == 2.0

    def test_cost_from_sources_rows_and_vector_agree(self):
        table = Table("t", Schema.of(x="bounded", origin="text"))
        costs = {"a": 1.0, "b": 7.0}
        for index in range(6):
            table.insert(
                {"x": Bound(0.0, float(index)), "origin": "ab"[index % 2]}
            )
        func = cost_from_sources("origin", costs, default=3.0)
        from repro.storage.columnar import cost_vector

        vector = cost_vector(table.columns, vector_cost_of(func))
        assert [func(r) for r in table.rows()] == vector.tolist()

    def test_missing_source_column_falls_back_to_row_path(self):
        """A tagged per-source cost over a table with no source column
        cannot be read off the arrays: the planner calls it on each
        candidate's row (which prices it at default_cost), never raising
        mid-plan."""
        from repro.core.refresh.summing import SumChooseRefresh
        from repro.storage.columnar import cost_vector

        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(0.0, 4.0)})
        table.insert({"x": Bound(0.0, 2.0)})
        func = PerSourceCostModel(costs_by_source={"s1": 9.0}).as_func()
        assert cost_vector(table.columns, vector_cost_of(func)) is None
        from tests.oracle.row_protocol import RowSumChooseRefresh

        plan, _ = SumChooseRefresh().without_predicate(table, "x", 3.0, func)
        assert plan == RowSumChooseRefresh().without_predicate(
            table.rows(), "x", 3.0, func
        )
        assert plan.total_cost == pytest.approx(1.0)  # default_cost

    def test_cost_vector_numeric_source_column(self):
        table = Table("t", Schema.of(x="bounded", origin="exact"))
        table.insert({"x": Bound(0, 1), "origin": 0.0})
        table.insert({"x": Bound(0, 2), "origin": 1.0})
        func = cost_from_sources("origin", {0.0: 2.0, 1.0: 5.0})
        from repro.storage.columnar import cost_vector

        assert cost_vector(
            table.columns, vector_cost_of(func)
        ).tolist() == [2.0, 5.0]

    def test_sum_planner_routes_source_costs_columnar(self):
        """The vector planner must accept a tagged per-source cost and
        choose a plan as cheap as the row path's."""
        from repro.core.refresh.summing import SumChooseRefresh

        table = Table("t", Schema.of(x="bounded", origin="text"))
        rng_widths = [3.0, 1.0, 4.0, 1.5, 9.0, 2.5, 6.0, 3.5]
        for index, width in enumerate(rng_widths):
            table.insert(
                {"x": Bound(0.0, width), "origin": "ab"[index % 2]}
            )
        func = cost_from_sources("origin", {"a": 1.0, "b": 6.0})
        from tests.oracle.row_protocol import RowSumChooseRefresh

        budget = sum(rng_widths) * 0.4
        vector_plan, _ = SumChooseRefresh(force_exact=True).without_predicate(
            table, "x", budget, func
        )
        row_plan = RowSumChooseRefresh(force_exact=True).without_predicate(
            table.rows(), "x", budget, func
        )
        assert vector_plan.total_cost == pytest.approx(row_plan.total_cost)


class TestBatchedPerSourceParameters:
    def test_overrides_and_defaults(self):
        model = BatchedCostModel(
            setup=5.0,
            marginal=2.0,
            setup_by_source={"near": 1.0},
            marginal_by_source={"near": 0.5},
        )
        assert model.setup_for("near") == 1.0
        assert model.setup_for("far") == 5.0
        assert model.marginal_for("near") == 0.5
        assert model.batch_cost("near", 4) == pytest.approx(1.0 + 0.5 * 4)
        assert model.batch_cost("far", 4) == pytest.approx(5.0 + 2.0 * 4)

    def test_cost_of_set_prices_each_source_with_its_own_parameters(self):
        model = BatchedCostModel(
            setup=5.0, marginal=2.0, marginal_by_source={"near": 0.5}
        )
        rows = [
            Row(1, {"source": "near"}),
            Row(2, {"source": "near"}),
            Row(3, {"source": "far"}),
        ]
        assert model.cost_of_set(rows) == pytest.approx(
            (5.0 + 0.5 * 2) + (5.0 + 2.0 * 1)
        )
        assert model.naive_upper_bound(rows[0]) == pytest.approx(5.5)
        assert model.naive_upper_bound(rows[2]) == pytest.approx(7.0)

    def test_as_func_tags_uniform_without_overrides(self):
        func = BatchedCostModel(setup=5.0, marginal=1.0).as_func()
        assert vector_cost_of(func) == ("uniform", 6.0)
        assert func(row(source="s")) == 6.0

    def test_as_func_tags_source_with_overrides(self):
        model = BatchedCostModel(
            setup=5.0, marginal=1.0, marginal_by_source={"s1": 0.25}
        )
        assert vector_cost_of(model.as_func()) is None  # no column named
        tagged = model.as_func(source_column="source")
        assert vector_cost_of(tagged) == (
            "source",
            ("source", {"s1": 5.25}, 6.0),
        )
        assert tagged(row(source="s1")) == 5.25
        assert tagged(row(source="other")) == 6.0
