"""Top-level TRAPP system wiring: sources + caches + query processor.

:class:`TrappSystem` assembles the architecture of the paper's Figure 3 in
one object: it owns a shared clock, any number of data sources and data
caches, and a query API that runs the three-step executor against a cache
with query-initiated refreshes flowing through the replication protocol.

This is the main entry point for library users::

    system = TrappSystem()
    source = system.add_source("s1")
    ...populate master tables...
    cache = system.add_cache("monitor")
    cache.subscribe_table(source, "links")
    answer = system.query(
        "monitor", "SELECT AVG(traffic) WITHIN 10 FROM links"
    )
"""

from __future__ import annotations

from typing import Callable

from repro.core.answer import BoundedAnswer
from repro.core.constraints import PrecisionConstraint
from repro.core.executor import QueryExecutor
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import TrappError
from repro.predicates.ast import Predicate
from repro.replication.cache import DataCache
from repro.replication.fanout import CacheGroup
from repro.replication.sharding import Partitioner, ShardedSource, round_robin
from repro.replication.source import DataSource
from repro.simulation.clock import Clock

__all__ = ["TrappSystem"]


class TrappSystem:
    """A complete TRAPP deployment: clock, sources, caches, query API."""

    def __init__(
        self,
        clock: Clock | None = None,
        epsilon: float | None = None,
    ):
        self.clock = clock if clock is not None else Clock()
        self.epsilon = epsilon
        self._sources: dict[str, DataSource] = {}
        self._caches: dict[str, DataCache] = {}
        #: Set by :meth:`repro.telemetry.Telemetry.observe_system`; caches
        #: added afterwards pick up their instruments here.
        self.telemetry = None
        #: Set by :meth:`repro.faults.FaultInjector.attach`; caches and
        #: sources created afterwards (elastic admission!) join the same
        #: fault plane instead of silently bypassing the chaos schedule.
        self.fault_injector = None
        #: Replication fan-out tiers; group ids share the cache-id
        #: namespace so the query service can route ``query(group_id, …)``.
        self._groups: dict[str, CacheGroup] = {}
        # Executors are stateless across execute() calls, so one per
        # (cache, epsilon) is reused for every query — the query service
        # calls this path at high rate and must not pay a constructor
        # per query.
        self._executors: dict[tuple[str, float | None], QueryExecutor] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_source(
        self,
        source_id: str,
        shards: int | None = None,
        partitioner: Partitioner | None = None,
        **kwargs,
    ) -> "DataSource | ShardedSource":
        """Create a data source, optionally sharded.

        ``shards=N`` builds a :class:`ShardedSource` of N physical
        shards named ``<source_id>/0`` … ``<source_id>/N-1`` (each also
        registered individually, so ``system.source("s1/2")`` resolves);
        master tables added to it are horizontally partitioned, and a
        cache subscribing to it serves one logical table whose refreshes
        fan out per shard.  ``partitioner`` selects the placement policy:
        the default round-robin on tuple id, or a key-based policy such as
        :func:`~repro.replication.sharding.hash_by_key` /
        :func:`~repro.replication.sharding.range_by_key`.  ``shards=None``
        keeps the classic single source.  ``**kwargs`` (bound shapes,
        width policies, piggyback) are forwarded to every underlying
        :class:`DataSource`.
        """
        if source_id in self._sources:
            raise TrappError(f"source {source_id!r} already exists")
        if shards is None:
            if partitioner is not None:
                raise TrappError(
                    "partitioner= requires shards=N; an unsharded source "
                    "has nothing to partition"
                )
            source: DataSource | ShardedSource = DataSource(
                source_id, clock=self.clock.now, **kwargs
            )
        else:
            source = ShardedSource.create(
                source_id,
                shards,
                partitioner=partitioner if partitioner is not None else round_robin,
                clock=self.clock.now,
                **kwargs,
            )
            for shard in source.shards:
                if shard.source_id in self._sources:
                    raise TrappError(
                        f"source {shard.source_id!r} already exists"
                    )
            for shard in source.shards:
                self._sources[shard.source_id] = shard
        self._sources[source_id] = source
        if self.fault_injector is not None:
            shards_of = getattr(source, "shards", None)
            for physical in shards_of if shards_of is not None else (source,):
                physical.fault_injector = self.fault_injector
        return source

    def add_cache(
        self,
        cache_id: str,
        shards: "dict[str, DataSource | ShardedSource | str] | None" = None,
        group: "CacheGroup | str | None" = None,
        region: str | None = None,
        cost_model: "object | None" = None,
    ) -> DataCache:
        """Create a cache, optionally pre-subscribed to (sharded) tables.

        ``shards`` maps table names to the source serving them — a
        :class:`DataSource`, a :class:`ShardedSource`, or a source id —
        and is sugar for calling
        :meth:`~repro.replication.cache.DataCache.subscribe_table` once
        per entry; it exists so a sharded deployment is one expression::

            system.add_source("feeds", shards=4).add_table(master)
            cache = system.add_cache("monitor", shards={"links": "feeds"})

        ``group`` enrolls the cache in a replication fan-out tier (a
        :class:`~repro.replication.fanout.CacheGroup` or its id; naming a
        group that does not exist yet creates it), with an optional
        ``region`` label and per-cache refresh ``cost_model`` — a
        :class:`~repro.extensions.batching.BatchedCostModel` pricing this
        replica's round trips to each source, which the refresh scheduler
        uses to dispatch every source's batch from the cheapest replica.
        A regional deployment is then one expression per region::

            system.add_cache("eu", shards={"links": "feeds"},
                             group="edge", region="eu",
                             cost_model=eu_costs)
        """
        if cache_id in self._caches or cache_id in self._groups:
            raise TrappError(f"cache {cache_id!r} already exists")
        if group is None and (region is not None or cost_model is not None):
            raise TrappError(
                "region=/cost_model= describe a cache's place in a "
                "replication tier; pass group= as well"
            )
        # Resolve and validate the group *before* registering the cache:
        # a failure here must not leave a half-registered cache squatting
        # on the id.
        group_obj: CacheGroup | None = None
        #: Set when this call itself put the group into the registry, so
        #: a creation failure can take it back out.
        group_registered_here = False
        if group is not None:
            if isinstance(group, CacheGroup):
                registered = self._groups.get(group.group_id)
                if registered is None:
                    # Adopt the instance so id-based routing
                    # (``service.query(group_id, …)``) resolves it, and so
                    # a later ``add_cache(group="<same id>")`` joins this
                    # group instead of silently minting a second one.
                    if group.group_id in self._caches or group.group_id == cache_id:
                        raise TrappError(
                            f"group {group.group_id!r} collides with an "
                            "existing cache id"
                        )
                    self._groups[group.group_id] = group
                    group_registered_here = True
                elif registered is not group:
                    raise TrappError(
                        f"a different cache group {group.group_id!r} is "
                        "already registered with this system"
                    )
                group_obj = group
            else:
                if group == cache_id:
                    # Same namespace check as the instance branch: the
                    # service resolves group ids before cache ids, so a
                    # cache shadowed by its own group could never be
                    # pinned.
                    raise TrappError(
                        f"group {group!r} collides with the cache id being "
                        "created"
                    )
                group_obj = self._groups.get(group)
                if group_obj is None:
                    group_obj = self.add_group(group)
                    group_registered_here = True
        cache = DataCache(cache_id, clock=self.clock.now)
        if self.telemetry is not None:
            cache.attach_telemetry(self.telemetry.registry)
        if self.fault_injector is not None:
            cache.fault_injector = self.fault_injector
        self._caches[cache_id] = cache
        try:
            if group_obj is not None:
                group_obj.add_replica(cache, region=region, cost_model=cost_model)
            for table_name, source in (shards or {}).items():
                if isinstance(source, str):
                    source = self.source(source)
                cache.subscribe_table(source, table_name)
        except BaseException:
            # Creation failed.  While the cache holds no subscriptions
            # (enrollment rejected, or a subscription pre-check fired
            # before mutating) the whole add is undone — the id and the
            # group stay reusable for a corrected retry.  A failure *after*
            # subscriptions were committed keeps the cache registered, as
            # live monitor registrations cannot be silently dropped.
            if not cache.subscribed_sources():
                if group_obj is not None and cache.group is group_obj:
                    group_obj._discard_replica(cache)
                del self._caches[cache_id]
                # A group this very call minted (and that stayed empty)
                # must not squat on the shared id namespace either.
                if group_registered_here and len(group_obj) == 0:
                    del self._groups[group_obj.group_id]
            raise
        return cache

    def detach_cache(self, cache_id: str) -> DataCache:
        """Remove a cache from the deployment (elastic scale-down).

        Group members are detached through their group
        (:meth:`CacheGroup.detach_replica` — registry, fan-out, and
        monitor teardown included); standalone caches just unwind their
        subscriptions.  Memoized executors for the cache are evicted so
        a later cache under the same id cannot inherit a stale refresher.
        The emptied cache object is returned for re-admission elsewhere.
        """
        cache = self.cache(cache_id)
        if cache.group is not None:
            cache.group.detach_replica(cache)
        else:
            cache.unsubscribe_all()
        del self._caches[cache_id]
        for key in [k for k in self._executors if k[0] == cache_id]:
            del self._executors[key]
        return cache

    def admit_cache(
        self,
        cache_id: str,
        group: "CacheGroup | str",
        from_cache: "str | None" = None,
        region: str | None = None,
        cost_model: "object | None" = None,
        default_model: "object | None" = None,
    ) -> "tuple[DataCache, object]":
        """Add a late-joining replica to a group via snapshot transfer.

        Creates a fresh cache under ``cache_id`` and hands it to
        :meth:`CacheGroup.admit_replica`: cached tables, bound functions,
        and width-policy state are cloned from the cheapest sibling (or
        ``from_cache``) instead of cold-resubscribing every object.
        Returns ``(cache, receipt)`` where ``receipt`` prices the
        snapshot transfer under the donor's cost model.  The creation is
        undone entirely when admission fails.
        """
        group_obj = group if isinstance(group, CacheGroup) else self.group(group)
        if cache_id in self._caches or cache_id in self._groups:
            raise TrappError(f"cache {cache_id!r} already exists")
        cache = DataCache(cache_id, clock=self.clock.now)
        if self.telemetry is not None:
            cache.attach_telemetry(self.telemetry.registry)
        if self.fault_injector is not None:
            cache.fault_injector = self.fault_injector
        self._caches[cache_id] = cache
        try:
            receipt = group_obj.admit_replica(
                cache,
                region=region,
                cost_model=cost_model,
                from_cache=from_cache,
                default_model=default_model,
            )
        except BaseException:
            del self._caches[cache_id]
            raise
        return cache, receipt

    def add_group(self, group_id: str, fanout: bool = True) -> CacheGroup:
        """Create a replication fan-out tier (see :class:`CacheGroup`).

        Group ids live in the cache-id namespace: the query service routes
        ``query(group_id, …)`` across the group's replicas the same way
        ``query(cache_id, …)`` pins one cache.
        """
        if group_id in self._groups or group_id in self._caches:
            raise TrappError(f"group {group_id!r} already exists")
        group = CacheGroup(group_id, fanout=fanout)
        self._groups[group_id] = group
        return group

    def source(self, source_id: str) -> "DataSource | ShardedSource":
        try:
            return self._sources[source_id]
        except KeyError:
            raise TrappError(f"unknown source {source_id!r}") from None

    def cache(self, cache_id: str) -> DataCache:
        try:
            return self._caches[cache_id]
        except KeyError:
            raise TrappError(f"unknown cache {cache_id!r}") from None

    def group(self, group_id: str) -> CacheGroup:
        try:
            return self._groups[group_id]
        except KeyError:
            raise TrappError(f"unknown cache group {group_id!r}") from None

    def is_group(self, name: str) -> bool:
        """True when ``name`` is a cache-group id (vs a single cache)."""
        return name in self._groups

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        cache_id: str,
        sql: str,
        cost: CostFunc | None = None,
        epsilon: float | None = None,
    ) -> BoundedAnswer:
        """Parse and execute a TRAPP SQL statement against one cache.

        Every statement class — single-table (§4), join (§7), GROUP BY
        and TOP-N (§8.1) — compiles to the shared step protocol
        (:func:`repro.sql.steps.plan_steps`) and is driven serially
        against the cache; the concurrent
        :class:`~repro.service.QueryService` drives the *same*
        generators through its refresh scheduler, so the two paths
        return identical answers for identical interleavings.
        ``epsilon`` configures the single-table planner's (1 − ε)
        approximation (GROUP BY included); the join heuristic is greedy
        per base tuple and has no approximation knob, so joins ignore
        it.  GROUP BY statements return a
        :class:`~repro.extensions.groupby.GroupedAnswer` (per-group
        breakdown in ``.groups``); ``TOPN(n, column)`` statements a
        :class:`~repro.extensions.topn.TopNAnswer` (membership sets).
        """
        from repro.core.executor import drive_steps
        from repro.sql.compiler import compile_statement
        from repro.sql.parser import parse_statement
        from repro.sql.steps import plan_steps

        cache = self.cache(cache_id)
        cache.sync_bounds()
        statement = parse_statement(sql)
        plan = compile_statement(statement, cache.catalog)
        executor = self.executor_for(cache_id, epsilon)
        steps = plan_steps(plan, executor, cost=self._resolve_cost(cost))
        return drive_steps(steps, cache)

    def query_ast(
        self,
        cache_id: str,
        table: str,
        aggregate: str,
        column: str | None,
        constraint: PrecisionConstraint | float,
        predicate: Predicate | None = None,
        cost: CostFunc | None = None,
        epsilon: float | None = None,
    ) -> BoundedAnswer:
        """Execute a query given pre-built AST pieces (no SQL text)."""
        cache = self.cache(cache_id)
        cache.sync_bounds()
        executor = self.executor_for(cache_id, epsilon)
        return executor.execute(
            table=cache.table(table),
            aggregate=aggregate,
            column=column,
            constraint=constraint,
            predicate=predicate,
            cost=self._resolve_cost(cost),
        )

    # ------------------------------------------------------------------
    def executor_for(
        self, cache_id: str, epsilon: float | None = None
    ) -> QueryExecutor:
        """The shared, reusable executor for one cache.

        Executors hold no per-query state, so the same instance safely
        serves every query against a cache (including interleaved
        ``execute_steps`` generators driven by the concurrent service).
        """
        effective = epsilon if epsilon is not None else self.epsilon
        key = (cache_id, effective)
        executor = self._executors.get(key)
        if executor is None:
            executor = QueryExecutor(
                refresher=self.cache(cache_id), epsilon=effective
            )
            self._executors[key] = executor
        return executor

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_cost(cost: CostFunc | None) -> CostFunc:
        return uniform_cost if cost is None else cost
