"""Integration tests for the simulation engine over a TRAPP system."""

import random

import pytest

from examples.section8.engine import QueryDriver, SimulationEngine, UpdateDriver
from examples.section8.walks import GaussianWalk
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.workloads.netmon import paper_master_table


@pytest.fixture
def engine():
    system = TrappSystem()
    source = system.add_source("node")
    source.add_table(paper_master_table())
    cache = system.add_cache("monitor")
    cache.subscribe_table(source, "links")
    return SimulationEngine(system)


class TestSimulationEngine:
    def test_updates_fire_on_schedule(self, engine):
        driver = engine.add_update_driver(
            UpdateDriver(
                source_id="node",
                key=ObjectKey("links", 1, "latency"),
                walk=GaussianWalk(value=3.0, volatility=0.5, rng=random.Random(1)),
                period=1.0,
            )
        )
        engine.run_until(10.0)
        assert driver.updates_applied == 10
        assert engine.total_updates() == 10

    def test_queries_record_answers(self, engine):
        driver = engine.add_query_driver(
            QueryDriver(
                cache_id="monitor",
                sql="SELECT SUM(latency) WITHIN 50 FROM links",
                period=2.0,
            )
        )
        engine.run_until(10.0)
        assert len(driver.records) == 5
        assert engine.total_queries() == 5
        for record in driver.records:
            assert record.answer.width <= 50 + 1e-9

    def test_answers_always_contain_master_truth(self, engine):
        """Containment invariant under churn: the bounded answer always
        contains the SUM of the current master values."""
        engine.add_update_driver(
            UpdateDriver(
                source_id="node",
                key=ObjectKey("links", 2, "latency"),
                walk=GaussianWalk(value=7.0, volatility=1.0, rng=random.Random(9)),
                period=0.7,
            )
        )
        driver = engine.add_query_driver(
            QueryDriver(
                cache_id="monitor",
                sql="SELECT SUM(latency) WITHIN 5 FROM links",
                period=3.0,
            )
        )
        engine.run_until(30.0)
        master = engine.system.source("node").table("links")
        # The final master truth must be inside the final answer (updates
        # stopped when the run ended).
        truth = sum(master.row(t).number("latency") for t in master.tids())
        last = driver.records[-1].answer
        assert last.bound.contains(truth)

    def test_refresh_cost_accumulates(self, engine):
        engine.add_update_driver(
            UpdateDriver(
                source_id="node",
                key=ObjectKey("links", 1, "traffic"),
                walk=GaussianWalk(value=98.0, volatility=10.0, rng=random.Random(2)),
                period=0.5,
            )
        )
        engine.add_query_driver(
            QueryDriver(
                cache_id="monitor",
                sql="SELECT SUM(traffic) WITHIN 1 FROM links",
                period=5.0,
            )
        )
        engine.run_until(25.0)
        assert engine.total_refresh_cost() >= 0.0
