"""Cross-query *and* cross-cache refresh coalescing (paper §8.2 scaled out).

Each in-flight query suspends at its refresh point
(:meth:`~repro.core.executor.QueryExecutor.execute_steps` yields a
:class:`~repro.core.executor.PlannedRefresh`) and submits the plan here.
The scheduler buffers submissions for one *tick*, then:

1. **clusters** the tick's plans: plans against caches replicating within
   one :class:`~repro.replication.fanout.CacheGroup` share a cluster per
   table (their refreshes are interchangeable — source-side fan-out hands
   any replica's refreshed values to every sibling), while standalone
   caches cluster alone per (cache, table) exactly as before;
2. **rebatches** each plan that carries SUM metadata toward sources the
   cluster already pays setup for
   (:func:`repro.extensions.batching.rebatch_plan`, the tick's sunk
   setups being free) — with a group cluster, a source another *cache's*
   query contacts this tick counts as sunk too;
3. **merges** the cluster per *source* and deduplicates tuple ids — N
   queries wanting the same hot tuples trigger one refresh even when they
   run against different replicas;
4. dispatches one batched request per source through the *cheapest
   subscribed replica* (per-cache cost models: a regional cache near a
   shard pays less for its round trip), paying the amortized
   ``setup + marginal · k`` price once for the whole group — fan-out then
   tightens every sibling's bounds from the same message;
5. **attributes** the cost actually paid back to the queries: each
   source's setup is split evenly among the queries that used it, each
   tuple's marginal cost evenly among the queries that requested it; and
6. reports every dispatched (caches, table, tuple ids) batch to
   ``on_refresh`` so the service can proactively invalidate result-cache
   entries whose plans read the refreshed table.

Every query then resumes step 3 of its pipeline against the now-refreshed
cache.  Refreshing the union of plans only ever *narrows* bounds beyond
what each query planned for — on the query's own cache directly, on
sibling replicas through fan-out — so per-query precision guarantees
survive coalescing unchanged (property-tested in
``tests/service/test_concurrency_equivalence.py`` and, across replicas,
``tests/property/test_group_equivalence.py``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.executor import PlannedRefresh
from repro.core.refresh.base import RefreshPlan
from repro.errors import CacheUnavailableError
from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.replication.cache import DataCache
from repro.storage.table import Table
from repro.telemetry.registry import DEFAULT_SIZE_BUCKETS, MetricsRegistry

__all__ = ["RefreshScheduler", "SchedulerStats"]

#: ``(tightened caches, table name, refreshed tids)`` — fired after each
#: dispatched batch so the serving layer can invalidate derived state
#: (cached answers) that read the refreshed table.
RefreshListener = Callable[[list[DataCache], str, frozenset[int]], None]

#: Attribute name → ``trapp_scheduler_events_total`` event label.  The
#: historical counter API (``stats.ticks`` etc.) is preserved as a thin
#: view over these registry children.
_STAT_EVENTS = {
    "ticks": "tick",
    "plans_submitted": "plan_submitted",
    #: Tuple refreshes the queries asked for (pre-dedup, pre-rebatch).
    "tuples_requested": "tuple_requested",
    #: Distinct tuples actually refreshed after merging.
    "tuples_refreshed": "tuple_refreshed",
    "source_requests": "source_request",
    #: Clusters (one per group × table per tick) in which plans from two
    #: or more *different* caches merged into shared source messages —
    #: may exceed ``ticks`` when one tick carries several such tables.
    "cross_cache_merges": "cross_cache_merge",
    #: Source batches dispatched through a cheaper sibling replica than
    #: the one the requesting query ran against.
    "leader_redirects": "leader_redirect",
    #: ``on_refresh`` listener invocations that raised (the refresh
    #: itself succeeded; the invalidation hook is broken).
    "listener_errors": "listener_error",
    #: Adaptive-tick adjustments (0 unless ``adaptive_tick`` is on).
    "tick_grows": "tick_grow",
    "tick_shrinks": "tick_shrink",
}


class SchedulerStats:
    """Counters describing how much coalescing actually happened.

    Since PR 7 this is a *view* over the telemetry registry, not parallel
    bookkeeping: reads and ``+=`` mutations hit the same
    ``trapp_scheduler_events_total`` / ``trapp_refresh_cost_paid_total``
    children the ``metrics`` wire op serves, so the two surfaces cannot
    drift.  (With a disabled registry every counter reads 0.)
    """

    __slots__ = ("_children",)

    def __init__(self, registry: MetricsRegistry) -> None:
        events = registry.counter(
            "trapp_scheduler_events_total",
            "Refresh-scheduler coalescing events",
            ("event",),
        )
        children = {
            attr: events.labels(event=label)
            for attr, label in _STAT_EVENTS.items()
        }
        children["total_cost_paid"] = registry.counter(
            "trapp_refresh_cost_paid_total",
            "Refresh cost paid at sources, from dispatch receipts",
        )
        object.__setattr__(self, "_children", children)

    def __getattr__(self, name: str):
        try:
            child = self._children[name]
        except KeyError:
            raise AttributeError(name) from None
        value = child.value
        return value if name == "total_cost_paid" else int(value)

    def __setattr__(self, name: str, value) -> None:
        child = self._children.get(name)
        if child is None:
            raise AttributeError(
                f"SchedulerStats has no counter {name!r}"
            )
        child.inc(value - child.value)

    def as_dict(self) -> dict[str, float]:
        return {
            name: getattr(self, name)
            for name in (*_STAT_EVENTS, "total_cost_paid")
        }


@dataclass(slots=True)
class _Pending:
    """One query's suspended refresh: its plan and the future to resume it."""

    cache: DataCache
    request: PlannedRefresh
    #: Effective tuple ids for this query (mutated by the rebatch pass).
    tids: set[int]
    future: "asyncio.Future[RefreshPlan]"
    #: The submitting query's telemetry span, or ``None`` untraced.
    trace: "object | None" = None


class RefreshScheduler:
    """Coalesces concurrent queries' refresh plans, tick by tick.

    ``tick_interval`` is the coalescing window in seconds; ``0`` flushes
    as soon as every currently-runnable query task has reached its refresh
    point (one trip around the event loop), which keeps simulated-clock
    tests deterministic.  ``cost_model`` enables §8.2 amortized accounting
    and cross-query rebatching; without one, costs are uniform (1 per
    tuple) and plans are only deduplicated.  ``cross_cache=True`` (the
    default) additionally merges plans across the replicas of a
    :class:`~repro.replication.fanout.CacheGroup` — per-cache cost models
    registered with the group override ``cost_model`` when pricing (and
    choosing) the replica that dispatches each source's batch.  ``False``
    keeps every cache's schedule independent (the benchmark ablation).
    ``network_delay`` simulates one source round-trip time per tick
    (round trips to distinct sources proceed in parallel), letting
    benchmarks measure the wall-clock value of coalescing, not just the
    cost-model value.
    """

    #: Smallest non-zero window the adaptive controller grows from.
    TICK_QUANTUM = 0.001

    def __init__(
        self,
        cost_model: BatchedCostModel | None = None,
        tick_interval: float = 0.0,
        rebatch: bool = True,
        network_delay: float = 0.0,
        adaptive_tick: bool = False,
        tick_min: float = 0.0,
        tick_max: float = 0.05,
        cross_cache: bool = True,
        on_refresh: RefreshListener | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_injector=None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        self.cost_model = cost_model
        #: The telemetry registry backing :attr:`stats` and the tick /
        #: batch histograms.  A standalone scheduler (tests, benchmarks
        #: without a service) gets a private enabled registry so its
        #: counters keep working.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._h_tick_seconds = self.registry.histogram(
            "trapp_scheduler_tick_seconds",
            "Wall-clock duration of each coalescing tick",
        )
        self._h_plans_per_tick = self.registry.histogram(
            "trapp_scheduler_plans_per_tick",
            "Refresh plans coalesced per tick",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._h_batch_size = self.registry.histogram(
            "trapp_source_batch_size",
            "Tuples per dispatched source batch",
            ("source",),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._c_source_cost = self.registry.counter(
            "trapp_refresh_cost_total",
            "Refresh cost paid per source, from dispatch receipts",
            ("source",),
        )
        self._c_leader_selected = self.registry.counter(
            "trapp_leader_selections_total",
            "Source batches dispatched through each replica",
            ("cache",),
        )
        fault_events = self.registry.counter(
            "trapp_fault_events_total",
            "Failure-handling events across the refresh pipeline",
            ("event",),
        )
        self._c_fault = {
            event: fault_events.labels(event=event)
            for event in (
                "source_failure",
                "retry",
                "breaker_skip",
                "breaker_open",
                "breaker_half_open",
                "breaker_closed",
                "failover_dispatch",
                "failover_exhausted",
                "degraded_plan",
            )
        }
        self._g_breaker = self.registry.gauge(
            "trapp_breaker_state",
            "Circuit-breaker state per source (0 closed, 1 open, 2 half-open)",
            ("source",),
        )
        self._h_source_latency = self.registry.histogram(
            "trapp_source_contact_latency_seconds",
            "Injected per-contact latency recorded on refresh receipts",
            ("source",),
        )
        self.tick_interval = tick_interval
        #: Intent flag; rebatching additionally needs a cost model for
        #: the pending's cache — the scheduler default, or a per-cache
        #: model registered with its group (see :meth:`_model_for`).
        self.rebatch = rebatch
        self.network_delay = network_delay
        #: Group-commit style window sizing: a tick that coalesced plans
        #: doubles the window (batching pays — wait for more company, up
        #: to ``tick_max``); a tick that fired for a lone plan halves it
        #: (nobody to coalesce with — stop taxing latency, down to
        #: ``tick_min``).
        self.adaptive_tick = adaptive_tick
        self.tick_min = tick_min
        self.tick_max = tick_max
        self.cross_cache = cross_cache
        self.on_refresh = on_refresh
        #: Backoff schedule for retrying failed source batches.  Always
        #: present (the default policy retries up to 3 contacts) — with
        #: no failures it never fires, so zero-fault runs are untouched.
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: The fault injector driving this deployment's chaos schedule,
        #: if any.  Only used for its deterministic clock (breaker
        #: cooldowns); the injector acts at the cache/source layer.
        self.fault_injector = fault_injector
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        #: Per-source circuit breakers, created lazily on first *failure*
        #: — a clean run never allocates one, keeping the dispatch gate a
        #: single falsy check.
        self._breakers: dict[str, CircuitBreaker] = {}
        self.stats = SchedulerStats(self.registry)
        events = self.registry.counter(
            "trapp_scheduler_events_total", labelnames=("event",)
        )
        #: §8.2 passes run, and plans a pass altered.
        self._c_rebatch = events.labels(event="rebatch")
        self._c_rebatch_changed = events.labels(event="rebatch_changed")
        self._pending: list[_Pending] = []
        self._flush_task: asyncio.Task | None = None
        #: Replicas leader selection must skip — the service adds a
        #: draining replica here for the detach window so no new source
        #: batch dispatches through a cache about to leave its group.
        self._excluded_leaders: set[str] = set()

    # ------------------------------------------------------------------
    def exclude_leader(self, cache_id: str) -> None:
        """Keep one replica out of leader selection (detach drain window).

        An excluded replica still serves queries already routed to it and
        still receives fan-out pushes; it just stops being chosen to
        *dispatch* source batches, so no tick holds a reference to it
        when the detach completes.  When exclusion empties a table's
        candidate pool entirely, selection falls back to ignoring the
        exclusions — dispatching through a draining replica beats
        degrading the queries.
        """
        self._excluded_leaders.add(cache_id)

    def readmit_leader(self, cache_id: str) -> None:
        """Undo :meth:`exclude_leader` (detach finished or was aborted)."""
        self._excluded_leaders.discard(cache_id)

    # ------------------------------------------------------------------
    async def submit(
        self, cache: DataCache, request: PlannedRefresh, trace=None
    ) -> RefreshPlan:
        """Queue one query's planned refresh; resolves once it is applied.

        Returns the effective plan for the submitting query: the tuple ids
        refreshed on its behalf (possibly rebatched) and the share of the
        batch cost attributed to it.  ``trace`` (a telemetry span) rides
        along so the dispatching tick can record which shared batch paid
        for this plan.
        """
        future: asyncio.Future[RefreshPlan] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(
            _Pending(cache, request, set(request.plan.tids), future, trace)
        )
        self.stats.plans_submitted += 1
        self.stats.tuples_requested += len(request.plan.tids)
        if self._flush_task is None:
            self._flush_task = asyncio.create_task(self._flush())
        return await future

    # ------------------------------------------------------------------
    async def _flush(self) -> None:
        try:
            if self.tick_interval > 0:
                await asyncio.sleep(self.tick_interval)
            else:
                # One trip around the event loop lets every already-started
                # query task reach its submit point before the tick fires.
                await asyncio.sleep(0)
            while self._pending:
                batch, self._pending = self._pending, []
                await self._run_tick(batch)
        finally:
            self._flush_task = None

    def _cluster_key(self, pending: _Pending) -> tuple[object, str]:
        """Plans sharing a key may merge into shared source messages.

        Replicas of a fan-out group are interchangeable refresh targets,
        so their plans cluster per (group, table); a standalone cache (or
        a group whose fan-out is off) clusters alone, preserving the
        classic per-cache behavior.
        """
        group = getattr(pending.cache, "group", None)
        if (
            self.cross_cache
            and group is not None
            and group.fanout
        ):
            return (group.group_id, pending.request.table.name)
        return (id(pending.cache), pending.request.table.name)

    async def _run_tick(self, batch: list[_Pending]) -> None:
        self.stats.ticks += 1
        tick_started = time.perf_counter()
        self._h_plans_per_tick.observe(len(batch))
        try:
            clusters: dict[tuple[object, str], list[_Pending]] = {}
            for pending in batch:
                clusters.setdefault(self._cluster_key(pending), []).append(pending)
            if self.network_delay > 0:
                await asyncio.sleep(self.network_delay)
            for cluster in clusters.values():
                await self._dispatch_cluster(cluster)
        except Exception as exc:
            # _dispatch_cluster settles its own cluster; anything that
            # escapes here (clustering itself failed) must still settle
            # every waiter or their queries hang forever.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        self._h_tick_seconds.observe(time.perf_counter() - tick_started)
        self._adapt_tick(len(batch))

    def _adapt_tick(self, plans_in_tick: int) -> None:
        """Resize the coalescing window after a tick (group-commit style).

        Load (≥ 2 plans met in the window, or more already queued behind
        it) grows the window so the next tick amortizes further; an idle
        tick — one lone plan that waited for nobody — shrinks it back
        toward ``tick_min`` so light traffic isn't taxed with latency.
        """
        if not self.adaptive_tick:
            return
        loaded = plans_in_tick + len(self._pending) >= 2
        if loaded:
            # Growth is capped at tick_max, but an operator-configured
            # interval already above the cap is left alone — load must
            # never *shrink* the window.
            grown = max(self.tick_interval * 2, self.TICK_QUANTUM)
            grown = min(grown, self.tick_max)
            if grown > self.tick_interval:
                self.stats.tick_grows += 1
                self.tick_interval = grown
        else:
            shrunk = max(self.tick_interval / 2, self.tick_min)
            if shrunk < self.TICK_QUANTUM:
                shrunk = self.tick_min
            # An idle tick may only lower the window — a tick_min above
            # the current interval must not add latency here.
            shrunk = min(shrunk, self.tick_interval)
            if shrunk < self.tick_interval:
                self.stats.tick_shrinks += 1
                self.tick_interval = shrunk

    # ------------------------------------------------------------------
    def _model_for(self, cache: DataCache) -> BatchedCostModel | None:
        """The cost model pricing one cache's round trips."""
        group = getattr(cache, "group", None)
        if group is not None:
            model = group.cost_model_for(cache.cache_id)
            if model is not None:
                return model
        return self.cost_model

    async def _dispatch_cluster(self, pendings: list[_Pending]) -> None:
        """Rebatch, merge per source, refresh via leaders, settle a cluster."""
        table_name = pendings[0].request.table.name
        try:
            group = getattr(pendings[0].cache, "group", None)
            grouped = (
                self.cross_cache and group is not None and group.fanout
            )
            # Rebatch against the prices dispatch will actually pay: the
            # group-projected per-source minimum under leader selection,
            # or each cache's own model when scheduling stays per-cache.
            # The per-tid routing sweep inside _rebatch_cluster is wasted
            # when no amortized model prices any of these caches.
            pricing = (
                group.pricing_model(self.cost_model) if grouped else None
            )
            if self.rebatch and (
                pricing is not None
                or any(
                    self._model_for(pending.cache) is not None
                    for pending in pendings
                )
            ):
                self._rebatch_cluster(pendings, pricing)

            requesters: dict[int, int] = {}
            merged: set[int] = set()
            for pending in pendings:
                merged |= pending.tids
                for tid in pending.tids:
                    requesters[tid] = requesters.get(tid, 0) + 1
            if grouped and len({id(p.cache) for p in pendings}) > 1:
                self.stats.cross_cache_merges += 1
            for pending in pendings:
                if pending.trace is not None:
                    pending.trace.step(
                        "coalesce",
                        table=table_name,
                        cluster_plans=len(pendings),
                        merged_tuples=len(merged),
                    )

            # One batched message per source, dispatched from the replica
            # whose cost model prices that source's round trip cheapest.
            # Leader choice needs the per-source demand split; a
            # standalone cluster has exactly one eligible dispatcher, so
            # it skips the per-tid routing pass entirely — refresh_batched
            # re-derives the per-source grouping itself, as it always did.
            by_leader: dict[int, tuple[DataCache, BatchedCostModel | None, set[int]]] = {}
            if grouped:
                demand: dict[str, set[int]] = {}
                for pending in pendings:
                    table = pending.request.table
                    for tid in pending.tids:
                        source_id = pending.cache.source_of_tuple(table, tid)
                        demand.setdefault(source_id, set()).add(tid)
                for source_id, tids in sorted(demand.items()):
                    leader, model = group.leader_for_source(
                        table_name,
                        source_id,
                        len(tids),
                        self.cost_model,
                        exclude=self._excluded_leaders,
                    )
                    if leader is None:
                        # Every subscribed replica is draining; dispatch
                        # through one anyway rather than drop the batch.
                        leader, model = group.leader_for_source(
                            table_name, source_id, len(tids), self.cost_model
                        )
                    entry = by_leader.setdefault(
                        id(leader), (leader, model, set())
                    )
                    entry[2].update(tids)
            else:
                leader = pendings[0].cache
                by_leader[id(leader)] = (leader, self._model_for(leader), merged)

            receipts: list[tuple[object, BatchedCostModel | None]] = []
            refreshed: set[int] = set()
            #: tid → source id for every planned tuple whose refresh
            #: ultimately failed (after retries, breaker gating, and
            #: leader failover) — the queries' degradation metadata.
            unreached: dict[int, str] = {}
            for leader, model, tids in by_leader.values():
                batch_receipts, batch_unreached = await self._dispatch_batch(
                    group if grouped else None,
                    table_name,
                    pendings,
                    leader,
                    model,
                    set(tids),
                )
                unreached.update(batch_unreached)
                for dispatcher, receipt, used_model in batch_receipts:
                    refreshed |= set(receipt.tids)
                    self.stats.source_requests += receipt.requests_sent
                    self.stats.total_cost_paid += receipt.total_cost
                    for source_receipt in receipt.per_source:
                        self._h_batch_size.labels(
                            source=source_receipt.source_id
                        ).observe(len(source_receipt.tids))
                        self._c_source_cost.labels(
                            source=source_receipt.source_id
                        ).inc(source_receipt.cost)
                        self._c_leader_selected.labels(
                            # Test doubles may not carry an id; label them
                            # rather than crash the dispatch path.
                            cache=getattr(dispatcher, "cache_id", "unknown")
                        ).inc()
                        if source_receipt.latency > 0:
                            self._h_source_latency.labels(
                                source=source_receipt.source_id
                            ).observe(source_receipt.latency)
                    receipts.append((receipt, used_model))
                    # One redirect per *source batch* that served some
                    # other cache's query through this leader.
                    self.stats.leader_redirects += sum(
                        1
                        for source_receipt in receipt.per_source
                        if any(
                            dispatcher is not pending.cache
                            and pending.tids & source_receipt.tids
                            for pending in pendings
                        )
                    )
            self.stats.tuples_refreshed += len(refreshed)

            shares = self._attribute(receipts, pendings, requesters)
            dispatched_sources = sorted(
                {
                    source_receipt.source_id
                    for receipt, _ in receipts
                    for source_receipt in receipt.per_source
                }
            )
            failed_sources = sorted(set(unreached.values()))
            for pending, share in zip(pendings, shares):
                mine_unreached = pending.tids & unreached.keys()
                if pending.trace is not None:
                    dispatch_fields = {
                        "sources": dispatched_sources,
                        "refreshed_tuples": len(refreshed),
                    }
                    if failed_sources:
                        dispatch_fields["failed_sources"] = failed_sources
                    pending.trace.step("dispatch", **dispatch_fields)
                    pending.trace.step(
                        "refresh",
                        tuples=len(pending.tids),
                        cost_share=share,
                    )
                # A waiter may have been cancelled (connection drop) while
                # the batch executed; settling it would raise and poison
                # the rest of the group.
                if not pending.future.done():
                    if mine_unreached:
                        self._c_fault["degraded_plan"].inc()
                        pending.future.set_result(
                            RefreshPlan(
                                frozenset(pending.tids - mine_unreached),
                                share,
                                unreached=frozenset(mine_unreached),
                                failed_sources=tuple(
                                    sorted(
                                        {
                                            unreached[tid]
                                            for tid in mine_unreached
                                        }
                                    )
                                ),
                            )
                        )
                    else:
                        pending.future.set_result(
                            RefreshPlan(frozenset(pending.tids), share)
                        )

            if self.on_refresh is not None and refreshed:
                # Invalidation scope follows *fan-out*, not the scheduling
                # mode: even with cross_cache=False, a fanout=True group's
                # source still pushed the fresh values to every sibling,
                # staling their cache-scoped result entries too.
                if group is not None and group.fanout:
                    tightened = group.caches_of_table(table_name)
                else:
                    tightened = [pendings[0].cache]
                try:
                    self.on_refresh(tightened, table_name, frozenset(refreshed))
                except Exception:
                    # Every future is already settled, so the enclosing
                    # handler would discard a listener error silently —
                    # count it instead of masking a broken invalidation
                    # hook (stale answers with zero signal).
                    self.stats.listener_errors += 1
        except Exception as exc:  # settle everyone; queries surface it
            for pending in pendings:
                if not pending.future.done():
                    pending.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Failure handling: breaker gating, retries with backoff, failover
    # ------------------------------------------------------------------
    async def _dispatch_batch(
        self,
        group,
        table_name: str,
        pendings: list[_Pending],
        leader: DataCache,
        model: BatchedCostModel | None,
        tids: set[int],
    ) -> "tuple[list[tuple[DataCache, object, BatchedCostModel | None]], dict[int, str]]":
        """Dispatch one leader's merged tuples, surviving faults.

        The happy path is one ``refresh_batched`` call — bit-identical to
        the pre-fault scheduler.  Under faults it layers three recoveries:

        1. **Breaker gating** — tuples whose source's circuit is open are
           dropped up front (marked unreached) instead of waiting on a
           source that has been failing; an elapsed cooldown admits one
           probe batch (half-open).
        2. **Retry with backoff** — sources that return failure receipts
           are re-contacted up to ``retry_policy.max_attempts`` total
           attempts, sleeping the policy's deterministic capped
           exponential backoff between rounds.
        3. **Failover** — a crashed leader (:class:`CacheUnavailableError`)
           hands the whole remaining batch to the next-cheapest subscribed
           replica via ``leader_for_source(exclude=...)``; fan-out keeps
           every sibling tightened no matter who dispatched.

        Returns the ``(dispatcher, receipt, model)`` triples of every
        successful contact round plus a ``tid → source_id`` map of the
        tuples that stayed unreached — the queries they belong to finish
        in degraded mode.
        """
        policy = self.retry_policy
        anchor = pendings[0]
        unreached: dict[int, str] = {}
        receipts: list[tuple[DataCache, object, BatchedCostModel | None]] = []
        excluded: set[str] = set()
        source_memo: dict[int, str] = {}

        def source_of(tid: int) -> str:
            source_id = source_memo.get(tid)
            if source_id is None:
                source_id = anchor.cache.source_of_tuple(
                    anchor.request.table, tid
                )
                source_memo[tid] = source_id
            return source_id

        def gate(remaining: set[int]) -> set[int]:
            """Drop tuples whose source's breaker refuses contact."""
            if not self._breakers:
                return remaining
            by_source: dict[str, set[int]] = {}
            for tid in remaining:
                by_source.setdefault(source_of(tid), set()).add(tid)
            allowed: set[int] = set()
            for source_id in sorted(by_source):
                breaker = self._breakers.get(source_id)
                if breaker is None or breaker.allow():
                    allowed |= by_source[source_id]
                else:
                    self._c_fault["breaker_skip"].inc()
                    for tid in by_source[source_id]:
                        unreached[tid] = source_id
            return allowed

        remaining = gate(set(tids))
        attempt = 0
        while remaining:
            leader_table = (
                anchor.request.table
                if leader is anchor.cache
                else leader.table(table_name)
            )
            try:
                receipt = leader.refresh_batched(
                    leader_table,
                    remaining,
                    batch_cost=model.batch_cost if model is not None else None,
                )
            except CacheUnavailableError:
                # The dispatching replica itself is down — fail the whole
                # remaining batch over to the next-cheapest sibling.
                excluded.add(getattr(leader, "cache_id", "unknown"))
                next_leader, next_model = (None, None)
                if group is not None:
                    next_leader, next_model = group.leader_for_source(
                        table_name,
                        source_of(min(remaining)),
                        len(remaining),
                        self.cost_model,
                        exclude=excluded,
                    )
                if next_leader is None:
                    self._c_fault["failover_exhausted"].inc()
                    for tid in remaining:
                        unreached[tid] = source_of(tid)
                    break
                self._c_fault["failover_dispatch"].inc()
                leader, model = next_leader, next_model
                continue
            attempt += 1
            for source_receipt in receipt.per_source:
                self._record_breaker_success(source_receipt.source_id)
                remaining -= source_receipt.tids
            if receipt.per_source:
                receipts.append((leader, receipt, model))
            if not receipt.failures:
                break
            for failure in receipt.failures:
                self._c_fault["source_failure"].inc()
                self._record_breaker_failure(failure.source_id)
            if policy.exhausted(attempt):
                for failure in receipt.failures:
                    for tid in failure.tids & remaining:
                        unreached[tid] = failure.source_id
                break
            remaining = gate(remaining)
            if not remaining:
                break
            self._c_fault["retry"].inc()
            delay = policy.delay_for(attempt, key=table_name)
            if delay > 0:
                await asyncio.sleep(delay)
        return receipts, unreached

    def _breaker_for(self, source_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(source_id)
        if breaker is None:
            clock = (
                self.fault_injector.now
                if self.fault_injector is not None
                else None
            )
            gauge = self._g_breaker.labels(source=source_id)
            gauge.set(0)

            def on_transition(
                old: str, new: str, _gauge=gauge
            ) -> None:
                self._c_fault[f"breaker_{new}"].inc()
                _gauge.set(CircuitBreaker.STATE_CODES[new])

            breaker = CircuitBreaker(
                clock=clock,
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                on_transition=on_transition,
            )
            self._breakers[source_id] = breaker
        return breaker

    def _record_breaker_success(self, source_id: str) -> None:
        # Never *allocates* a breaker: a clean deployment keeps
        # ``_breakers`` empty so the dispatch gate stays one falsy check.
        breaker = self._breakers.get(source_id)
        if breaker is not None:
            breaker.record_success()

    def _record_breaker_failure(self, source_id: str) -> None:
        self._breaker_for(source_id).record_failure()

    def breaker_states(self) -> dict[str, str]:
        """Current circuit state per source that has ever failed."""
        return {
            source_id: breaker.state
            for source_id, breaker in sorted(self._breakers.items())
        }

    def fault_counts(self) -> dict[str, int]:
        """The failure-handling event counters, as plain integers."""
        return {
            event: int(child.value)
            for event, child in self._c_fault.items()
        }

    def _rebatch_cluster(
        self,
        pendings: list[_Pending],
        pricing: BatchedCostModel | None = None,
    ) -> None:
        """§8.2 across queries *and* caches: steer plans toward sources the
        cluster already pays setup for this tick.

        ``pricing`` overrides each pending's own model (the
        group-projected minimum for fan-out clusters, whose batches are
        dispatched through the cheapest member per source).
        """
        # Memoize the subscription lookup once per tick: every pass reads
        # each candidate's source.  Tuple→source routing is a property of
        # the logical table, identical on every replica, so one memo
        # serves the whole cluster.
        source_by_tid: dict[int, str] = {}

        def source_of_tid(cache: DataCache, table: Table, tid: int) -> str:
            source_id = source_by_tid.get(tid)
            if source_id is None:
                source_id = cache.source_of_tuple(table, tid)
                source_by_tid[tid] = source_id
            return source_id

        def sources_of(pending: _Pending, tids) -> set[str]:
            table = pending.request.table
            return {source_of_tid(pending.cache, table, tid) for tid in tids}

        # Sources pinned by plans we cannot rebatch pay setup regardless.
        contacted: set[str] = set()
        for pending in pendings:
            if not pending.request.can_rebatch:
                contacted |= sources_of(pending, pending.tids)
        for pending in pendings:
            request = pending.request
            model = pricing if pricing is not None else self._model_for(pending.cache)
            if (
                request.can_rebatch
                and model is not None
                and pending.tids
                # One source leaves nothing to steer toward; only a sharded
                # table is worth the per-tuple routing sweep.
                and len(pending.cache.sources_of_table(request.table)) > 1
            ):
                tids = request.candidates.tids.tolist()
                if len(sources_of(pending, tids)) > 1:
                    widths = request.candidates.widths.tolist()
                    width_of = dict(zip(tids, widths))
                    removed = sum(width_of.get(tid, 0.0) for tid in request.plan.tids)
                    improved = rebatch_plan(
                        RefreshPlan(frozenset(pending.tids), 0.0),
                        tids,
                        widths,
                        source_by_tid,
                        max(0.0, removed - request.required_width),
                        model,
                        sunk=contacted,
                    )
                    self._c_rebatch.inc()
                    if improved.tids != pending.tids:
                        self._c_rebatch_changed.inc()
                        pending.tids = set(improved.tids)
            contacted |= sources_of(pending, pending.tids)

    def _attribute(
        self,
        receipts: "list[tuple[object, BatchedCostModel | None]]",
        pendings: list[_Pending],
        requesters: dict[int, int],
    ) -> list[float]:
        """Split each source's paid cost fairly among its requesters.

        Setup is divided evenly among the queries that touched the source;
        each tuple's marginal cost evenly among the queries that requested
        that tuple.  Shares sum exactly to the receipts' total (both are
        ``setup + marginal · k`` per source, with each source priced by
        the model of the replica that dispatched its batch).
        """
        shares = [0.0] * len(pendings)
        for receipt, model in receipts:
            for source_receipt in receipt.per_source:
                source_id = source_receipt.source_id
                setup = model.setup_for(source_id) if model is not None else 0.0
                marginal = (
                    model.marginal_for(source_id) if model is not None else 1.0
                )
                users = [
                    index
                    for index, pending in enumerate(pendings)
                    if pending.tids & source_receipt.tids
                ]
                if not users:  # pragma: no cover - merged set implies a user
                    continue
                for index in users:
                    mine = pendings[index].tids & source_receipt.tids
                    shares[index] += setup / len(users) + sum(
                        marginal / requesters[tid] for tid in mine
                    )
        return shares
