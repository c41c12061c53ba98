"""Cross-module integration scenarios exercising the full stack."""

import random

import pytest

from repro.core.bound import Bound
from repro.extensions.continuous import ContinuousQuery
from repro.extensions.groupby import grouped_query
from repro.replication import ColumnCostModel
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.simulation.engine import QueryDriver, SimulationEngine, UpdateDriver
from repro.simulation.random_walk import GaussianWalk
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.workloads.netmon import build_master_table, generate_topology


class TestFullStackScenario:
    """A living WAN: updates, mixed queries, churn, all guarantees held."""

    @pytest.fixture
    def world(self):
        rng = random.Random(1234)
        master = build_master_table(generate_topology(12, 25, rng), rng)
        system = TrappSystem()
        source = system.add_source("wan")
        source.add_table(master)
        cache = system.add_cache("ops")
        cache.subscribe_table(source, "links")
        engine = SimulationEngine(system)
        for row in master.rows():
            for metric in ("latency", "bandwidth", "traffic"):
                engine.add_update_driver(
                    UpdateDriver(
                        source_id="wan",
                        key=ObjectKey("links", row.tid, metric),
                        walk=GaussianWalk(
                            value=row.number(metric),
                            volatility=0.5,
                            rng=random.Random(rng.getrandbits(64)),
                            minimum=0.1,
                        ),
                        period=1.0,
                    )
                )
        return system, source, cache, engine, master

    def test_mixed_query_mix_over_time(self, world):
        system, source, cache, engine, master = world
        drivers = [
            engine.add_query_driver(
                QueryDriver("ops", sql, period=7.0)
            )
            for sql in (
                "SELECT SUM(traffic) WITHIN 40 FROM links",
                "SELECT MIN(bandwidth) WITHIN 3 FROM links",
                "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 10",
                "SELECT MEDIAN(latency) WITHIN 2 FROM links",
            )
        ]
        engine.run_until(60.0)
        for driver in drivers:
            assert driver.records, driver.sql
            for record in driver.records:
                budget = float(record.sql.split("WITHIN")[1].split()[0])
                assert record.answer.width <= budget + 1e-6, record.sql

    def test_churn_mid_simulation(self, world):
        system, source, cache, engine, master = world
        engine.run_until(10.0)
        change = source.insert_row(
            "links",
            {"from_node": 1, "to_node": 12, "latency": 5.0,
             "bandwidth": 60.0, "traffic": 100.0, "cost": 2.0},
        )
        source.delete_row("links", 3)
        engine.run_until(20.0)
        answer = system.query("ops", "SELECT COUNT(*) WITHIN 0 FROM links")
        assert answer.bound == Bound.exact(len(master))
        assert change.tid in cache.table("links")

    def test_refresh_economy_respects_constraint_looseness(self, world):
        system, source, cache, engine, master = world
        engine.run_until(30.0)
        loose = system.query(
            "ops", "SELECT AVG(traffic) WITHIN 50 FROM links",
            cost=ColumnCostModel("cost"),
        )
        tight = system.query(
            "ops", "SELECT AVG(traffic) WITHIN 1 FROM links",
            cost=ColumnCostModel("cost"),
        )
        assert loose.refresh_cost <= tight.refresh_cost + 1e-9
        assert tight.width <= 1 + 1e-9


class TestGroupByOverReplication:
    def test_per_group_dashboards(self):
        schema = Schema.of(region="text", load="bounded", cost="exact")
        master = Table("servers", schema)
        rng = random.Random(2)
        for region in ("us", "eu", "ap"):
            for _ in range(5):
                master.insert(
                    {"region": region, "load": rng.uniform(0, 100), "cost": 1.0}
                )
        system = TrappSystem()
        source = system.add_source("fleet")
        source.add_table(master)
        cache = system.add_cache("dash")
        cache.subscribe_table(source, "servers")
        system.clock.advance(200.0)
        cache.sync_bounds()

        results = grouped_query(
            cache.table("servers"), ["region"], "AVG", "load", 2.0,
            refresher=cache,
        )
        assert [r.key for r in results] == [("ap",), ("eu",), ("us",)]
        for result in results:
            assert result.answer.width <= 2 + 1e-9
            truth = sum(
                master.row(t).number("load")
                for t in master.tids()
                if master.row(t)["region"] == result.key[0]
            ) / result.size
            assert result.answer.bound.contains(truth)


class TestContinuousOverReplication:
    def test_dashboard_loop(self):
        schema = Schema.of(x="bounded")
        master = Table("t", schema)
        rng = random.Random(3)
        walks = {}
        for i in range(1, 9):
            value = rng.uniform(0, 50)
            master.insert({"x": value}, tid=i)
            walks[i] = GaussianWalk(
                value=value, volatility=1.0, rng=random.Random(rng.getrandbits(64))
            )
        system = TrappSystem()
        source = system.add_source("s")
        source.add_table(master)
        cache = system.add_cache("c")
        cache.subscribe_table(source, "t")

        query = ContinuousQuery(
            table=cache.table("t"), aggregate="SUM", column="x", max_width=5.0,
            refresher=cache, notify_delta=1.0,
        )
        frames = []
        query.subscribe(lambda answer: frames.append(answer.bound))

        for step in range(30):
            system.clock.advance(1.0)
            for tid, walk in walks.items():
                source.apply_update(ObjectKey("t", tid, "x"), walk.advance())
            cache.sync_bounds()
            answer = query.poll()
            truth = sum(master.row(t).number("x") for t in master.tids())
            assert answer.bound.contains(truth)
            assert answer.width <= 5 + 1e-9

        assert query.evaluations == 30
        # Damping: small drifts are suppressed, so fewer frames than polls.
        assert 1 <= query.notifications <= 30
        assert frames
