"""Cross-cache refresh coalescing: one source message serves many replicas."""

from __future__ import annotations

import asyncio

import pytest

from repro.extensions.batching import BatchedCostModel
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_master(n: int = 8) -> Table:
    table = Table("t", Schema.of(x="bounded"))
    for index in range(n):
        table.insert({"x": float(10 * (index + 1))})
    return table


def build_system(
    n_caches: int = 2,
    n_shards: int = 2,
    fanout: bool = True,
    models: "dict[str, BatchedCostModel] | None" = None,
) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s", shards=n_shards).add_table(make_master())
    system.add_group("edge", fanout=fanout)
    for index in range(n_caches):
        cache_id = f"edge/{index}"
        system.add_cache(
            cache_id,
            shards={"t": "s"},
            group="edge",
            cost_model=(models or {}).get(cache_id),
        )
    system.clock.advance(30.0)
    for cache in system.group("edge"):
        cache.sync_bounds()
    return system


def run(coro):
    return asyncio.run(coro)


MODEL = BatchedCostModel(setup=4.0, marginal=1.0)


async def issue_pair(service, sql_a, sql_b):
    return await asyncio.gather(
        service.query("edge/0", sql_a, client_id="a"),
        service.query("edge/1", sql_b, client_id="b"),
    )


# ----------------------------------------------------------------------
def test_two_caches_one_tick_one_message_per_source():
    """Two replicas' queries wanting the same tuples pay one batch."""
    system = build_system()
    service = QueryService(system, cost_model=MODEL)
    # Identical exact demand from different replicas, distinct SQL so
    # neither the result cache nor single-flight collapses them first.
    a, b = run(issue_pair(
        service,
        "SELECT SUM(x) WITHIN 0 FROM t",
        "SELECT SUM(x) WITHIN 0.25 FROM t",
    ))
    stats = service.stats()["scheduler"]
    assert stats.get("cross_cache_merges", 0) >= 1
    # The union spans both shards; each shard got exactly one message for
    # the whole group (2 messages total, not 2 per cache).
    total_requests = sum(
        cache.refresh_requests_sent for cache in system.group("edge")
    )
    assert stats["source_requests"] == 2
    assert total_requests == 2
    # Both answers exact and correct.
    assert a.answer.bound.lo == b.answer.bound.lo == 360.0
    # Shares of the attributed cost reconstruct the receipt total.
    assert a.answer.refresh_cost + b.answer.refresh_cost == pytest.approx(
        stats["total_cost_paid"]
    )


def test_cross_cache_off_pays_per_cache():
    """The ablation: same demand, independent schedulers, double setups."""
    coalesced = build_system(fanout=True)
    service_on = QueryService(coalesced, cost_model=MODEL, cross_cache=True)
    run(issue_pair(
        service_on,
        "SELECT SUM(x) WITHIN 0 FROM t",
        "SELECT SUM(x) WITHIN 0.25 FROM t",
    ))

    independent = build_system(fanout=False)
    service_off = QueryService(independent, cost_model=MODEL, cross_cache=False)
    run(issue_pair(
        service_off,
        "SELECT SUM(x) WITHIN 0 FROM t",
        "SELECT SUM(x) WITHIN 0.25 FROM t",
    ))

    on = service_on.stats()["scheduler"]
    off = service_off.stats()["scheduler"]
    assert off["cross_cache_merges"] == 0
    assert off["source_requests"] == 2 * on["source_requests"]
    assert off["total_cost_paid"] > on["total_cost_paid"]


def test_leader_selection_routes_batches_through_cheap_replica():
    """With per-cache per-shard models, each shard's batch travels through
    the replica that reaches it cheapest."""
    models = {
        # edge/0 is near shard 0, far from shard 1; edge/1 mirrored.
        "edge/0": BatchedCostModel(
            setup=1.0, marginal=1.0, setup_by_source={"s/1": 50.0}
        ),
        "edge/1": BatchedCostModel(
            setup=1.0, marginal=1.0, setup_by_source={"s/0": 50.0}
        ),
    }
    system = build_system(models=models)
    service = QueryService(system, cost_model=MODEL)
    run(issue_pair(
        service,
        "SELECT SUM(x) WITHIN 0 FROM t",
        "SELECT SUM(x) WITHIN 0.25 FROM t",
    ))
    stats = service.stats()["scheduler"]
    # Each replica dispatched exactly the shard it is near: total cost is
    # 2 cheap setups + marginals, never a 50.
    cache_0, cache_1 = system.group("edge")
    assert cache_0.refresh_requests_sent == 1
    assert cache_1.refresh_requests_sent == 1
    n_tuples = stats["tuples_refreshed"]
    assert stats["total_cost_paid"] == pytest.approx(2 * 1.0 + n_tuples * 1.0)
    assert stats["leader_redirects"] >= 1


def test_fanout_lets_redirected_queries_resume_correctly():
    """A query whose tuples were refreshed via a sibling's message still
    returns the exact answer — fan-out tightened its own cache."""
    models = {
        "edge/0": BatchedCostModel(setup=100.0, marginal=1.0),
        "edge/1": BatchedCostModel(setup=0.5, marginal=1.0),
    }
    system = build_system(n_shards=1, models=models)
    service = QueryService(system, cost_model=MODEL)

    async def go():
        return await service.query(
            "edge/0", "SELECT SUM(x) WITHIN 0 FROM t", client_id="a"
        )

    result = run(go())
    assert result.answer.bound.is_exact
    assert result.answer.bound.lo == 360.0
    # The batch went out through edge/1 (cheaper), not the query's cache.
    assert system.cache("edge/0").refresh_requests_sent == 0
    assert system.cache("edge/1").refresh_requests_sent == 1
    assert system.cache("edge/0").fanout_refreshes_received > 0


def test_rebatching_runs_on_group_models_alone():
    """Per-cache cost models enable §8.2 rebatching even with no
    scheduler-level default model."""
    models = {
        "edge/0": BatchedCostModel(setup=4.0, marginal=1.0),
        "edge/1": BatchedCostModel(setup=4.0, marginal=1.0),
    }
    system = build_system(models=models)
    service = QueryService(system)  # cost_model=None
    assert service.scheduler._model_for(system.cache("edge/0")) is models["edge/0"]
    run(issue_pair(
        service,
        "SELECT SUM(x) WITHIN 20 FROM t",
        "SELECT SUM(x) WITHIN 21 FROM t",
    ))
    stats = service.stats()["scheduler"]
    assert stats["total_cost_paid"] > 0
    # A cache outside any group, with no default model, has none.
    plain = build_system(n_caches=1, fanout=False)
    plain_service = QueryService(plain)
    assert plain_service.scheduler._model_for(plain.cache("edge/0")) is None


def test_single_cache_group_behaves_classically():
    system = build_system(n_caches=1)
    service = QueryService(system, cost_model=MODEL)

    async def go():
        return await service.query(
            "edge", "SELECT SUM(x) WITHIN 0 FROM t", client_id="only"
        )

    result = run(go())
    stats = service.stats()["scheduler"]
    assert result.answer.bound.is_exact
    assert stats["cross_cache_merges"] == 0
    assert stats["leader_redirects"] == 0
