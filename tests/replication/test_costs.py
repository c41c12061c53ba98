"""Unit tests for refresh cost models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bound import Bound
from repro.core.refresh.base import candidate_costs
from repro.core.refresh.summing import SumChooseRefresh
from repro.errors import OptimizerError, TrappError, UnknownColumnError
from repro.extensions.batching import BatchedCostModel
from repro.replication import (
    ColumnCostModel,
    PerSourceCostModel,
    TableCostModel,
    UniformCostModel,
)
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_protocol import RowSumChooseRefresh
from tests.protocol import row_cost


def table(schema=None, **columns):
    """One tuple per entry of the (equally long) column lists, ids 1, 2, …"""
    schema = schema or Schema.of(**{name: "exact" for name in columns})
    out = Table("t", schema)
    for values in zip(*columns.values()):
        out.insert(dict(zip(columns, values)))
    return out


class TestCostModels:
    def test_uniform(self):
        t = table(a=[1.0, 2.0, 3.0])
        assert UniformCostModel(3.0).costs_at(t, None).tolist() == [3.0] * 3
        assert UniformCostModel().costs_at(t, np.array([2, 0])).tolist() == [1.0, 1.0]

    def test_column(self):
        t = table(cost=[7.0, 2.0, 5.0])
        model = ColumnCostModel("cost")
        assert model.costs_at(t, None).tolist() == [7.0, 2.0, 5.0]
        assert model.costs_at(t, np.array([2, 0])).tolist() == [5.0, 7.0]

    def test_column_unknown(self):
        with pytest.raises(UnknownColumnError, match="'nope' in table 't'"):
            ColumnCostModel("nope").costs_at(table(cost=[1.0]), None)

    def test_per_source(self):
        model = PerSourceCostModel(
            costs_by_source={"near": 1.0, "far": 9.0}, default_cost=4.0
        )
        t = table(Schema.of(source="text"), source=["near", "far", "unknown"])
        assert model.costs_at(t, None).tolist() == [1.0, 9.0, 4.0]
        assert model.costs_at(t, np.array([1, 1, 0])).tolist() == [9.0, 9.0, 1.0]

    def test_per_source_custom_extractor(self):
        """A source rule that is not a column read is a bare callable,
        priced through ``candidate_costs`` on each candidate's row."""
        by_source = {"n5": 2.0}
        t = table(to_node=[5.0, 6.0])
        costs = candidate_costs(
            t, lambda r: by_source.get(f"n{int(r['to_node'])}", 1.0)
        )
        assert costs.tolist() == [2.0, 1.0]

    def test_table(self):
        model = TableCostModel({1: 5.0}, default_cost=2.0)
        t = table(a=[0.0, 0.0])
        assert model.costs_at(t, None).tolist() == [5.0, 2.0]
        assert model.costs_at(t, np.array([1])).tolist() == [2.0]

    def test_table_missing_without_default_raises(self):
        t = table(a=[0.0, 0.0])
        with pytest.raises(TrappError, match="no refresh cost known for tuple #2"):
            TableCostModel({1: 5.0}).costs_at(t, None)
        # A tuple that is not priced needs no cost.
        assert TableCostModel({1: 5.0}).costs_at(t, np.array([0])).tolist() == [5.0]


class TestPerSourceVectorTag:
    """Per-source models read their source ids off a column array."""

    def test_costs_at_reads_the_named_source_column(self):
        model = PerSourceCostModel(
            costs_by_source={"near": 1.0, "far": 9.0},
            default_cost=4.0,
            source_column="origin",
        )
        t = table(Schema.of(origin="text"), origin=["far", "near", "x"])
        assert model.costs_at(t, None).tolist() == [9.0, 1.0, 4.0]

    def test_missing_source_column_falls_back_to_row_path(self):
        """A per-source cost over a table with no source column prices
        every tuple at default_cost, never raising mid-plan."""
        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(0.0, 4.0)})
        table.insert({"x": Bound(0.0, 2.0)})
        model = PerSourceCostModel(costs_by_source={"s1": 9.0})
        assert model.costs_at(table, None).tolist() == [1.0, 1.0]

        plan, _ = SumChooseRefresh().without_predicate(table, "x", 3.0, model)
        assert plan == RowSumChooseRefresh().without_predicate(
            table.rows(), "x", 3.0, row_cost(model)
        )
        assert plan.total_cost == pytest.approx(1.0)  # default_cost

    def test_cost_vector_numeric_source_column(self):
        table = Table("t", Schema.of(x="bounded", origin="exact"))
        table.insert({"x": Bound(0, 1), "origin": 0.0})
        table.insert({"x": Bound(0, 2), "origin": 1.0})
        model = PerSourceCostModel({0.0: 2.0, 1.0: 5.0}, source_column="origin")
        assert model.costs_at(table, None).tolist() == [2.0, 5.0]

    def test_source_ids_must_be_exact(self):
        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(0, 1)})
        with pytest.raises(OptimizerError, match="source column 'x' of table 't'"):
            PerSourceCostModel({}, source_column="x").costs_at(table, None)

    def test_sum_planner_routes_source_costs_columnar(self):
        """The vector planner must accept a per-source model and choose a
        plan as cheap as the row path's."""
        table = Table("t", Schema.of(x="bounded", origin="text"))
        rng_widths = [3.0, 1.0, 4.0, 1.5, 9.0, 2.5, 6.0, 3.5]
        for index, width in enumerate(rng_widths):
            table.insert(
                {"x": Bound(0.0, width), "origin": "ab"[index % 2]}
            )
        model = PerSourceCostModel({"a": 1.0, "b": 6.0}, source_column="origin")

        budget = sum(rng_widths) * 0.4
        vector_plan, _ = SumChooseRefresh(force_exact=True).without_predicate(
            table, "x", budget, model
        )
        row_plan = RowSumChooseRefresh(force_exact=True).without_predicate(
            table.rows(), "x", budget, row_cost(model)
        )
        assert vector_plan.total_cost == pytest.approx(row_plan.total_cost)


AGREEMENT_SCHEMA = Schema.of(x="bounded", cost="exact", shard="exact", origin="text")

#: Every built-in model, over id columns that are text, numeric and
#: absent, with sources and tuple ids the tables below do and do not hold.
MODELS = [
    UniformCostModel(),
    UniformCostModel(2.5),
    ColumnCostModel("cost"),
    PerSourceCostModel({"a": 1.0, "b": 7.5}, 3.0, "origin"),
    PerSourceCostModel({0.0: 2.0, 2.0: 0.25}, 4.0, "shard"),
    PerSourceCostModel({"a": 9.0}, 1.5, "missing"),
    PerSourceCostModel({}, 6.0, "origin"),
    TableCostModel({1: 5.0, 3: 0.5, 99: 1.0}, default_cost=2.0),
]


class TestModelsAgreeWithRowLambdas:
    """The one place two spellings of a model meet: ``costs_at`` against
    the function of one row written out in ``tests/protocol.row_cost``."""

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 1e6]),
                st.sampled_from([0.0, 1.0, 2.0]),
                st.sampled_from(["a", "b", "c", ""]),
            ),
            max_size=12,
        ),
        model=st.sampled_from(MODELS),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_costs_at_equals_row_lambda(self, rows, model, data):
        table = Table("t", AGREEMENT_SCHEMA)
        for cost, shard, origin in rows:
            table.insert(
                {"x": Bound(0.0, 1.0), "cost": cost, "shard": shard, "origin": origin}
            )
        at = data.draw(
            st.none()
            | st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=20).map(
                lambda ks: np.array(ks if rows else [], dtype=np.int64)
            )
        )
        assert (
            candidate_costs(table, model, at).tolist()
            == candidate_costs(table, row_cost(model), at).tolist()
        )


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
        counts = {"near": 2, "far": 1}
        assert model.cost_of_counts(counts) == pytest.approx(
            (5.0 + 0.5 * 2) + (5.0 + 2.0 * 1)
        )
        # A sunk source charges its marginals only.
        assert model.cost_of_counts(counts, {"far", "idle"}) == pytest.approx(
            (5.0 + 0.5 * 2) + 2.0 * 1
        )

    def test_upper_bound_uniform_by_default(self):
        upper = BatchedCostModel(setup=5.0, marginal=1.0).upper_bound_model()
        assert upper == UniformCostModel(6.0)

    def test_upper_bound_per_source_overrides(self):
        model = BatchedCostModel(
            setup=5.0, marginal=1.0, marginal_by_source={"s1": 0.25}
        )
        assert model.upper_bound_model() == PerSourceCostModel(
            {"s1": 5.25}, 6.0, "source"
        )
        t = table(Schema.of(src="text"), src=["s1", "other"])
        assert model.upper_bound_model("src").costs_at(t, None).tolist() == [5.25, 6.0]
