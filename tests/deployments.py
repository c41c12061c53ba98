"""Deployments and client scripts the service tests and goldens share.

Each builder returns a :class:`~repro.replication.system.TrappSystem`
with bounds synced, plus the
:class:`~repro.extensions.batching.BatchedCostModel` its service prices
refreshes with: one netmon table sharded N ways (fan-in claims), K
regional replicas of a sharded table behind one group (fan-out claims),
and a two-replica group holding ``links`` and ``nodes`` so that every
statement class routes (mixed-class claims and the metric catalogue).
The script builders size each ``WITHIN`` from the tables' current
bound widths.
"""

from __future__ import annotations

import random

from repro.extensions.batching import BatchedCostModel
from repro.replication.sharding import round_robin
from repro.replication.system import TrappSystem
from repro.storage.table import Table
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.service import ClientScript, build_node_table


# ----------------------------------------------------------------------
# Sharded variant: one logical table partitioned across N shard sources
# ----------------------------------------------------------------------
def shard_marginals(
    n_shards: int,
    marginal_range: tuple[float, float] = (1.0, 10.0),
    source_id: str = "net",
) -> dict[str, float]:
    """Per-shard marginal refresh costs with a fan-in-independent mean.

    Shard ``i`` of ``N`` charges ``lo + (hi − lo)·(i + ½)/N`` per tuple:
    evenly spaced over ``marginal_range`` with the *same mean* at every
    fan-in (``(lo + hi)/2``), so sweeping the shard count changes only
    how much cost heterogeneity the planner can exploit — the cheapest
    shard's marginal falls as ``lo + (hi − lo)/2N`` — never the average
    price of the deployment.  This is the §8.2 regime where steering
    refresh batches toward cheap, already-contacted shards pays.
    """
    lo, hi = marginal_range
    return {
        f"{source_id}/{i}": lo + (hi - lo) * (i + 0.5) / n_shards
        for i in range(n_shards)
    }


def sharded_service_system(
    n_shards: int,
    n_links: int = 600,
    seed: int = 11,
    setup: float = 4.0,
    marginal_range: tuple[float, float] = (1.0, 10.0),
    source_id: str = "net",
    cache_id: str = "monitor",
    clock_advance: float = 50.0,
):
    """A TRAPP deployment serving one netmon table sharded N ways.

    Builds the same ``links`` master data for every fan-in (same seed ⇒
    same tuples, bounds, and widths), stripes it round-robin across
    ``n_shards`` shard sources named ``<source_id>/<i>``, and overwrites
    each link's ``cost`` column with its owning shard's marginal — the
    *per-shard cost column* ``ColumnCostModel("cost")`` prices tuples
    by shard from.

    Returns ``(system, cost_model)``: the system has one cache
    subscribed to the sharded table with bounds synced at
    ``clock_advance``, and the
    :class:`~repro.extensions.batching.BatchedCostModel` carries the
    matching per-shard marginals for the refresh scheduler's amortized
    accounting.
    """
    rng = random.Random(seed)
    master = build_master_table(
        generate_topology(max(2, n_links // 3), n_links, rng), rng
    )
    marginals = shard_marginals(n_shards, marginal_range, source_id)
    for row in master.rows():
        shard_id = f"{source_id}/{round_robin(row.tid, n_shards)}"
        master.update_value(row.tid, "cost", marginals[shard_id])

    system = TrappSystem()
    system.add_source(source_id, shards=n_shards).add_table(master)
    system.add_cache(cache_id, shards={"links": source_id})
    system.clock.advance(clock_advance)
    system.cache(cache_id).sync_bounds()

    lo, hi = marginal_range
    model = BatchedCostModel(
        setup=setup,
        marginal=(lo + hi) / 2,
        marginal_by_source=marginals,
    )
    return system, model


def sharded_sum_scripts(
    table: Table,
    n_clients: int,
    queries_per_client: int,
    seed: int = 11,
    removal_range: tuple[float, float] = (0.01, 0.05),
    column: str = "traffic",
) -> list[ClientScript]:
    """Per-client SUM scripts sized to the table's current total width.

    Each query's ``WITHIN`` budget asks to remove a fraction drawn from
    ``removal_range`` of the table's total bound width — small enough
    that even at high shard fan-in the cheapest shard alone can supply
    the width, which is what lets the planner and the cross-query
    rebatcher concentrate refresh batches on cheap shards.  Budgets are
    computed once against the current widths, so every fan-in of the
    same seed sees an identical workload.
    """
    total = sum(row.bound(column).width for row in table.rows())
    rng = random.Random(seed)
    scripts = []
    for index in range(n_clients):
        sqls = tuple(
            f"SELECT SUM({column}) "
            f"WITHIN {total * (1 - rng.uniform(*removal_range)):.6f} "
            f"FROM {table.name}"
            for _ in range(queries_per_client)
        )
        scripts.append(ClientScript(client_id=f"client-{index:02d}", sqls=sqls))
    return scripts


# ----------------------------------------------------------------------
# Mixed-class variant: joins, GROUP BY, TOP-N, and MEDIAN on one group
# ----------------------------------------------------------------------
def mixed_service_system(
    n_caches: int = 2,
    n_links: int = 120,
    seed: int = 11,
    setup: float = 5.0,
    marginal: float = 1.0,
    source_id: str = "net",
    group_id: str = "edge",
    clock_advance: float = 50.0,
):
    """A cache group serving the full query surface over links ⋈ nodes.

    Builds netmon's ``links`` master plus a ``nodes`` master on one
    source and subscribes ``n_caches`` fan-out replicas — ``edge/0`` …
    ``edge/K-1`` — to *both* tables, so every statement class the
    compiler knows (single-table aggregates, §7 joins, §8.1 GROUP BY and
    TOP-N, MEDIAN) can route to any replica.  Returns ``(system,
    cost_model)`` with bounds synced at ``clock_advance``.
    """
    rng = random.Random(seed)
    n_nodes = max(2, n_links // 3)
    links = build_master_table(generate_topology(n_nodes, n_links, rng), rng)
    nodes = build_node_table(n_nodes, rng)

    system = TrappSystem()
    source = system.add_source(source_id)
    source.add_table(links)
    source.add_table(nodes)
    system.add_group(group_id)
    for c in range(n_caches):
        cache = system.add_cache(f"{group_id}/{c}", group=group_id)
        cache.subscribe_table(source, "links")
        cache.subscribe_table(source, "nodes")
    system.clock.advance(clock_advance)
    for cache in system.group(group_id):
        cache.sync_bounds()

    return system, BatchedCostModel(setup=setup, marginal=marginal)


def mixed_scripts(
    links: Table,
    nodes: Table,
    n_clients: int,
    queries_per_client: int,
    seed: int = 11,
    overlap: float = 0.75,
    pool_size: int | None = None,
) -> list[ClientScript]:
    """Per-client scripts drawing from every statement class.

    The generated pool cycles through five classes — plain SUM/AVG,
    GROUP BY, TOP-N, MEDIAN, and the links ⋈ nodes join — with WITHIN
    budgets sized from the tables' *current* total bound widths, so each
    query needs real refresh work yet stays satisfiable as bounds widen.
    Clients draw from the shared pool with probability ``overlap`` (the
    coalescing/result-cache regime), else privately.
    """
    rng = random.Random(seed)
    traffic_total = sum(r.bound("traffic").width for r in links.rows())
    latency_total = sum(r.bound("latency").width for r in links.rows())
    load_by_node = {r["node"]: r.bound("load").width for r in nodes.rows()}
    join_total = sum(load_by_node.get(r["to_node"], 0.0) for r in links.rows())
    groups: dict[object, float] = {}
    for r in links.rows():
        key = r["from_node"]
        groups[key] = groups.get(key, 0.0) + r.bound("traffic").width
    group_max = max(groups.values()) if groups else 1.0
    mean_traffic = traffic_total / max(1, len(list(links.rows())))

    def one(index: int) -> str:
        frac = rng.uniform(0.3, 0.7)
        cls = index % 5
        if cls == 0:
            agg = rng.choice(("SUM", "AVG"))
            return (
                f"SELECT {agg}(traffic) WITHIN "
                f"{frac * traffic_total * (1.0 if agg == 'SUM' else 1e-2):.6f}"
                f" FROM links"
            )
        if cls == 1:
            return (
                f"SELECT SUM(traffic) WITHIN {frac * group_max:.6f} "
                f"FROM links GROUP BY from_node"
            )
        if cls == 2:
            return (
                f"SELECT TOPN(3, traffic) WITHIN "
                f"{rng.uniform(0.5, 1.5) * mean_traffic:.6f} FROM links"
            )
        if cls == 3:
            return (
                f"SELECT MEDIAN(latency) WITHIN "
                f"{frac * latency_total / 10:.6f} FROM links"
            )
        return (
            f"SELECT SUM(load) WITHIN {frac * join_total:.6f} "
            f"FROM links, nodes WHERE to_node = node"
        )

    pool_size = pool_size if pool_size is not None else max(5, n_clients)
    pool = [one(i) for i in range(pool_size)]
    private = pool_size
    scripts: list[ClientScript] = []
    for index in range(n_clients):
        sqls = []
        for _ in range(queries_per_client):
            if rng.random() < overlap:
                sqls.append(rng.choice(pool))
            else:
                sqls.append(one(private))
                private += 1
        scripts.append(
            ClientScript(client_id=f"client-{index:02d}", sqls=tuple(sqls))
        )
    return scripts


# ----------------------------------------------------------------------
# Regional variant: K replica caches behind one group, shared shard set
# ----------------------------------------------------------------------
def regional_setups(
    n_caches: int,
    n_shards: int,
    setup_range: tuple[float, float] = (2.0, 12.0),
    source_id: str = "net",
    cache_prefix: str = "edge",
) -> dict[str, dict[str, float]]:
    """Per-(cache, shard) setup costs with a fan-out-independent mean.

    Cache ``c`` of ``K`` pays shard ``s`` a setup of
    ``lo + (hi − lo)·(((c + s) mod K) + ½)/K`` — a circulant layout: for
    every *shard* the K caches' setups are evenly spaced over
    ``setup_range`` with the *same mean* at every fan-out
    (``(lo+hi)/2``), so the deployment-wide mean is K-independent too.
    (Individual caches may average cheaper or dearer across shards when
    K exceeds the shard count — only the per-shard and deployment means
    are invariant.)  Sweeping the cache count therefore changes only how
    much *placement choice* the scheduler has — the cheapest replica's
    setup for any shard falls as ``lo + (hi − lo)/2K`` — never the
    average price of the deployment.  This is the replication regime
    where dispatching each shard's batched refresh from its nearest
    replica pays.
    """
    lo, hi = setup_range
    return {
        f"{cache_prefix}/{c}": {
            f"{source_id}/{s}": lo + (hi - lo) * (((c + s) % n_caches) + 0.5) / n_caches
            for s in range(n_shards)
        }
        for c in range(n_caches)
    }


def regional_cache_system(
    n_caches: int,
    n_shards: int = 4,
    n_links: int = 600,
    seed: int = 11,
    setup_range: tuple[float, float] = (2.0, 12.0),
    marginal: float = 1.0,
    source_id: str = "net",
    group_id: str = "edge",
    clock_advance: float = 50.0,
    fanout: bool = True,
):
    """A TRAPP deployment with K regional caches replicating one table.

    Builds the same ``links`` master data for every cache count (same
    seed ⇒ same tuples, bounds, and widths), stripes it across
    ``n_shards`` shard sources, and subscribes ``n_caches`` replica
    caches — ``edge/0`` … ``edge/K-1`` — to the sharded table through one
    :class:`~repro.replication.fanout.CacheGroup` named ``group_id``.
    Each replica carries a per-cache
    :class:`~repro.extensions.batching.BatchedCostModel` whose per-shard
    setups come from :func:`regional_setups`, so the refresh scheduler
    can dispatch every shard's batch from the cheapest replica.

    ``fanout=False`` builds the *independent-caches* ablation: same
    topology, same cost heterogeneity, but no source-side fan-out and
    therefore no cross-cache coalescing — each replica pays its own
    refreshes.

    Returns ``(system, default_model)``: bounds synced at
    ``clock_advance`` on every replica, and the default model carrying
    the deployment's mean setup for anything not priced per cache.
    """
    rng = random.Random(seed)
    master = build_master_table(
        generate_topology(max(2, n_links // 3), n_links, rng), rng
    )

    system = TrappSystem()
    system.add_source(source_id, shards=n_shards).add_table(master)
    system.add_group(group_id, fanout=fanout)
    lo, hi = setup_range
    setups = regional_setups(
        n_caches, n_shards, setup_range, source_id, cache_prefix=group_id
    )
    for c in range(n_caches):
        cache_id = f"{group_id}/{c}"
        model = BatchedCostModel(
            setup=(lo + hi) / 2,
            marginal=marginal,
            setup_by_source=setups[cache_id],
        )
        system.add_cache(
            cache_id,
            shards={"links": source_id},
            group=group_id,
            cost_model=model,
        )
    system.clock.advance(clock_advance)
    for cache in system.group(group_id):
        cache.sync_bounds()

    default_model = BatchedCostModel(setup=(lo + hi) / 2, marginal=marginal)
    return system, default_model
