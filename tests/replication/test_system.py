"""End-to-end tests for TrappSystem: SQL in, guaranteed bounds out."""

import pytest

from repro.core.bound import Bound
from repro.errors import TrappError
from repro.replication import ColumnCostModel
from repro.replication.system import TrappSystem
from repro.workloads.netmon import paper_master_table


@pytest.fixture
def system():
    sys = TrappSystem()
    source = sys.add_source("node")
    source.add_table(paper_master_table())
    cache = sys.add_cache("monitor")
    cache.subscribe_table(source, "links")
    return sys


class TestTopology:
    def test_duplicate_ids_rejected(self, system):
        with pytest.raises(TrappError):
            system.add_source("node")
        with pytest.raises(TrappError):
            system.add_cache("monitor")

    def test_unknown_lookup(self, system):
        with pytest.raises(TrappError):
            system.source("ghost")
        with pytest.raises(TrappError):
            system.cache("ghost")


class TestQueries:
    def test_fresh_subscription_answers_exactly(self, system):
        answer = system.query("monitor", "SELECT SUM(latency) WITHIN 5 FROM links")
        assert answer.bound == Bound.exact(48)
        assert not answer.refreshed

    def test_query_after_time_passes_refreshes(self, system):
        system.clock.advance(100.0)
        answer = system.query(
            "monitor",
            "SELECT SUM(latency) WITHIN 1 FROM links",
            cost=ColumnCostModel("cost"),
        )
        assert answer.width <= 1 + 1e-9
        assert answer.bound.contains(48)
        assert answer.refreshed

    def test_unconstrained_query_never_refreshes(self, system):
        system.clock.advance(1000.0)
        answer = system.query("monitor", "SELECT AVG(traffic) FROM links")
        assert not answer.refreshed
        assert answer.bound.contains((98 + 116 + 105 + 127 + 95 + 103) / 6)

    def test_predicate_query(self, system):
        system.clock.advance(10.0)
        answer = system.query(
            "monitor",
            "SELECT COUNT(*) WITHIN 0 FROM links WHERE latency > 10",
        )
        # Master latencies: only tuple 3 (13) and tuple 5 (11) exceed 10.
        assert answer.bound == Bound.exact(2)

    def test_query_ast_path(self, system):
        from repro.predicates.parser import parse_predicate

        system.clock.advance(10.0)
        answer = system.query_ast(
            "monitor",
            table="links",
            aggregate="MIN",
            column="bandwidth",
            constraint=2.0,
            predicate=parse_predicate("latency < 10"),
        )
        assert answer.width <= 2 + 1e-9
        # Master: tuples with latency < 10 are 1 (61), 2 (53), 4 (68), 6 (45).
        assert answer.bound.contains(45)

    def test_precision_performance_monotonicity(self, system):
        """Looser constraints never cost more — Figure 1(b)'s shape, end to
        end through the replication stack."""
        costs = []
        for budget in (0.5, 2, 8, 32, 128):
            sys = TrappSystem()
            source = sys.add_source("node")
            source.add_table(paper_master_table())
            cache = sys.add_cache("monitor")
            cache.subscribe_table(source, "links")
            sys.clock.advance(50.0)
            answer = sys.query(
                "monitor",
                f"SELECT SUM(traffic) WITHIN {budget} FROM links",
                cost=ColumnCostModel("cost"),
            )
            costs.append(answer.refresh_cost)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
