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

from repro.core.answer import BoundedAnswer
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.errors import TrappError
from repro.extensions.batching import UNIFORM_PRICE, BatchedCostModel, checked_price
from repro.replication.cache import DataCache
from repro.replication.fanout import CacheGroup
from repro.replication.sharding import ShardedSource
from repro.replication.source import DataSource
from repro.simulation.clock import Clock

__all__ = ["TrappSystem"]


class TrappSystem:
    """A complete TRAPP deployment: clock, sources, caches, query API."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else Clock()
        self._sources: dict[str, DataSource] = {}
        self._caches: dict[str, DataCache] = {}
        #: Set by :meth:`repro.telemetry.Telemetry.observe_system`; caches
        #: added afterwards pick up their instruments here.
        self.telemetry = None
        #: Replication fan-out tiers; group ids share the cache-id
        #: namespace so the query service can route ``query(group_id, …)``.
        self._groups: dict[str, CacheGroup] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_source(
        self,
        source_id: str,
        shards: int | None = None,
        **kwargs,
    ) -> "DataSource | ShardedSource":
        """Create a data source, optionally sharded.

        ``shards=N`` builds a :class:`ShardedSource` of N physical
        shards named ``<source_id>/0`` … ``<source_id>/N-1`` (each also
        registered individually, so ``system.source("s1/2")`` resolves);
        master tables added to it are horizontally partitioned, and a
        cache subscribing to it serves one logical table whose refreshes
        fan out per shard; tuple ids are striped round-robin across the
        shards.  ``shards=None`` keeps the classic single source.
        ``**kwargs`` (bound shapes, width policies, piggyback) are
        forwarded to every underlying :class:`DataSource`.
        """
        if source_id in self._sources:
            raise TrappError(f"source {source_id!r} already exists")
        if shards is None:
            source: DataSource | ShardedSource = DataSource(
                source_id, clock=self.clock.now, **kwargs
            )
        else:
            source = ShardedSource.create(
                source_id, shards, clock=self.clock.now, **kwargs
            )
            for shard in source.shards:
                if shard.source_id in self._sources:
                    raise TrappError(
                        f"source {shard.source_id!r} already exists"
                    )
            for shard in source.shards:
                self._sources[shard.source_id] = shard
        self._sources[source_id] = source
        if self.telemetry is not None:
            for physical in getattr(source, "shards", (source,)):
                physical.attach_telemetry(self.telemetry.registry)
        return source

    def physical_sources(self) -> list[DataSource]:
        """Every :class:`DataSource` (each shard, no sharded wrapper), in
        registration order."""
        return [
            source for source in self._sources.values()
            if isinstance(source, DataSource)
        ]

    def add_cache(
        self,
        cache_id: str,
        shards: "dict[str, DataSource | ShardedSource | str] | None" = None,
        group: "CacheGroup | str | None" = None,
        region: str | None = None,
        cost_model: BatchedCostModel | None = None,
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
        checked_price(cost_model, override=True)
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
        subscriptions.  The emptied cache object is returned for
        re-admission elsewhere.
        """
        cache = self.cache(cache_id)
        if cache.group is not None:
            cache.group.detach_replica(cache)
        else:
            cache.unsubscribe_all()
        del self._caches[cache_id]
        return cache

    def admit_cache(
        self,
        cache_id: str,
        group: "CacheGroup | str",
        from_cache: "str | None" = None,
        region: str | None = None,
        cost_model: BatchedCostModel | None = None,
        default_model: BatchedCostModel = UNIFORM_PRICE,
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
        checked_price(cost_model, override=True)
        checked_price(default_model)
        group_obj = group if isinstance(group, CacheGroup) else self.group(group)
        if cache_id in self._caches or cache_id in self._groups:
            raise TrappError(f"cache {cache_id!r} already exists")
        cache = DataCache(cache_id, clock=self.clock.now)
        if self.telemetry is not None:
            cache.attach_telemetry(self.telemetry.registry)
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
        cost: CostFunc = uniform_cost,
    ) -> BoundedAnswer:
        """Parse and execute a TRAPP SQL statement against one cache.

        Every statement class — single-table (§4), join (§7), GROUP BY
        and TOP-N (§8.1) — compiles to the shared step protocol
        (:func:`repro.sql.steps.plan_steps`) and is driven serially
        against the cache; the concurrent
        :class:`~repro.service.QueryService` drives the *same*
        generators through its refresh scheduler, so the two paths
        return identical answers for identical interleavings.  Like
        the service, it first syncs the columns the plan reads
        (``columns_read``) and no other.
        ``cost`` prices each tuple's refresh (§3).
        GROUP BY statements return a
        :class:`~repro.extensions.groupby.GroupedAnswer` (per-group
        breakdown in ``.groups``); ``TOPN(n, column)`` statements a
        :class:`~repro.extensions.topn.TopNAnswer` (membership sets).
        """
        from repro.core.executor import drive_steps
        from repro.sql.compiler import compile_statement
        from repro.sql.parser import parse_statement
        from repro.sql.steps import plan_steps

        cache = self.cache(cache_id)
        plan = compile_statement(parse_statement(sql), cache.catalog)
        cache.sync_bounds(plan.columns_read)
        return drive_steps(plan_steps(plan, cost), cache)
