"""Unit tests for the workload generators."""

import random

import pytest

from examples.section8.stocks import (
    stock_cache_table,
    stock_costs,
    stock_master_table,
    volatile_stock_day,
)
from examples.section8.walks import link_walks
from repro.core.bound import Bound
from repro.workloads.netmon import (
    PAPER_LINKS,
    build_master_table,
    generate_topology,
    paper_costs,
    paper_example_table,
    paper_master_table,
)
from repro.workloads.queries import QueryWorkload


class TestPaperData:
    def test_figure2_transcription(self):
        cached = paper_example_table()
        assert len(cached) == 6
        row1 = cached.row(1)
        assert row1.bound("latency") == Bound(2, 4)
        assert row1.bound("bandwidth") == Bound(60, 70)
        assert row1.bound("traffic") == Bound(95, 105)
        assert row1["cost"] == 3

    def test_master_values_inside_cached_bounds(self):
        cached = paper_example_table()
        master = paper_master_table()
        for tid in cached.tids():
            for column in ("latency", "bandwidth", "traffic"):
                bound = cached.row(tid).bound(column)
                value = master.row(tid).number(column)
                assert bound.contains(value), (tid, column)

    def test_costs(self):
        assert paper_costs() == {1: 3, 2: 6, 3: 6, 4: 8, 5: 4, 6: 2}

    def test_links_match_figure(self):
        assert [(l.from_node, l.to_node) for l in PAPER_LINKS] == [
            (1, 2), (2, 4), (3, 4), (2, 3), (4, 5), (5, 6),
        ]


class TestTopologyGenerator:
    def test_connected_chain_plus_extras(self):
        rng = random.Random(1)
        links = generate_topology(10, 20, rng)
        assert len(links) == 20
        assert len(set(links)) == 20  # distinct
        for i in range(1, 10):
            assert (i, i + 1) in links  # spanning chain present

    def test_validation(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            generate_topology(1, 5, rng)
        with pytest.raises(ValueError):
            generate_topology(10, 3, rng)

    def test_master_table_ranges(self):
        rng = random.Random(2)
        table = build_master_table(generate_topology(5, 8, rng), rng)
        assert len(table) == 8
        for row in table:
            assert 2.0 <= row.number("latency") <= 20.0
            assert 40.0 <= row.number("bandwidth") <= 70.0
            assert 90.0 <= row.number("traffic") <= 150.0
            assert 1 <= row.number("cost") <= 10

    def test_link_walks_cover_metrics(self):
        rng = random.Random(3)
        table = build_master_table(generate_topology(4, 5, rng), rng)
        walks = link_walks(table, rng)
        assert len(walks) == 5 * 3
        # Latency floor respected under heavy volatility.
        walk = walks[(1, "latency")]
        for _ in range(200):
            assert walk.advance() >= 0.1


class TestStockWorkload:
    def test_determinism_from_seed(self):
        a = volatile_stock_day(n_stocks=10, seed=5)
        b = volatile_stock_day(n_stocks=10, seed=5)
        assert a == b
        c = volatile_stock_day(n_stocks=10, seed=6)
        assert a != c

    def test_day_invariants(self):
        days = volatile_stock_day(n_stocks=90)
        assert len(days) == 90
        for day in days:
            assert day.low <= day.close <= day.high
            assert day.low > 0
            assert 1 <= day.cost <= 10
            assert day.width >= 0

    def test_day_is_volatile(self):
        """A 'highly volatile' day: typical range is a few percent."""
        days = volatile_stock_day(n_stocks=90)
        relative_widths = [d.width / d.close for d in days]
        assert sum(relative_widths) / len(relative_widths) > 0.02

    def test_tables_align(self):
        days = volatile_stock_day(n_stocks=5)
        cache = stock_cache_table(days)
        master = stock_master_table(days)
        costs = stock_costs(days)
        assert cache.tids() == master.tids()
        for tid in cache.tids():
            bound = cache.row(tid).bound("price")
            close = master.row(tid).number("price")
            assert bound.contains(close)
            assert costs[tid] == cache.row(tid)["cost"]


class TestQueryWorkload:
    def test_reproducible(self):
        table = paper_example_table()
        w1 = QueryWorkload(table, "latency", seed=3)
        w2 = QueryWorkload(table, "latency", seed=3)
        assert w1.take(10) == w2.take(10)

    def test_specs_well_formed(self):
        table = paper_example_table()
        workload = QueryWorkload(
            table, "latency", seed=4, width_range=(1.0, 10.0), predicate_rate=1.0
        )
        for spec in workload.take(20):
            assert spec.aggregate in ("MIN", "MAX", "SUM", "COUNT", "AVG")
            assert 1.0 <= spec.max_width <= 10.0
            assert spec.predicate is not None
            if spec.aggregate == "COUNT":
                assert spec.column is None
            else:
                assert spec.column == "latency"

    def test_specs_execute(self):
        from repro.core.executor import drive_steps, table_steps
        from repro.replication.local import LocalRefresher
        from repro.workloads.netmon import paper_master_table

        table = paper_example_table()
        refresher = LocalRefresher(paper_master_table())
        workload = QueryWorkload(table, "latency", seed=8)
        for spec in workload.take(15):
            steps = table_steps(
                table, spec.aggregate, spec.column, spec.max_width, spec.predicate
            )
            answer = drive_steps(steps, refresher)
            assert answer.width <= spec.max_width + 1e-6
