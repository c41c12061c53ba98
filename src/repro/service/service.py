"""The concurrent TRAPP query service.

:class:`QueryService` wraps a :class:`~repro.replication.system.TrappSystem`
with the serving layer the paper's Figure 3 assumes but never specifies:
many clients issuing bounded aggregate queries against shared caches —
now possibly a whole :class:`~repro.replication.fanout.CacheGroup` of
regional replicas — and one refresh pipeline.

Per query the flow is:

1. **admission** — a global in-flight ceiling (backpressure: excess
   queries wait), a per-client in-flight allowance (excess queries are
   rejected with :class:`~repro.errors.ServiceOverloadError`), and a
   service-wide *precision floor* — no client may demand answers tighter
   than it (:class:`~repro.errors.AdmissionError`), which caps the
   refresh spend any one client can trigger;
2. **routing** — ``query(cache_id, …)`` pins a cache; ``query(group_id,
   …)`` hashes the client id over the group's replicas subscribed to the
   queried table (:class:`~repro.service.routing.StickyRouter`);
3. **result cache** — repeat queries whose cached bounded answer is young
   and still satisfies the constraint are served without touching the
   executor (:class:`~repro.service.results.ResultCache`).  Entries are
   scoped to the sharing domain: one *group-scoped* entry per query for
   the replicas of a fan-out group (fan-out keeps them interchangeable,
   so any replica's answer serves a query routed or pinned to any
   other), one *cache-scoped* entry otherwise.  Dispatched refreshes
   *invalidate* affected entries immediately (the scheduler reports
   every refreshed table through ``on_refresh``) instead of waiting for
   TTL/width expiry;
4. **execution** — the statement's step generator
   (:func:`~repro.sql.steps.plan_steps`) runs; at its refresh point the
   query suspends into the
   :class:`~repro.service.scheduler.RefreshScheduler`, which merges it
   with every other in-flight query's refresh — across queries and, for
   grouped replicas, across caches — before resuming step 3.

Concurrency safety rests on two properties: query planning (step 1 +
CHOOSE_REFRESH) runs synchronously between await points, so no other
query can mutate the cache mid-plan; and coalesced refreshes only ever
collapse *more* bounds than a query planned for, which never widens its
answer.  What *can* widen bounds under a suspended query — another
query's ``sync_bounds`` (every execution syncs its cache first) or a
value-initiated refresh — is answered by the step generators themselves:
a recheck that misses its constraint plans again over the current bounds
(counted as ``trapp_service_events_total{event="replan"}``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.core.answer import BoundedAnswer
from repro.core.constraints import AbsolutePrecision
from repro.errors import AdmissionError, ServiceError, ServiceOverloadError
from repro.extensions.batching import BatchedCostModel
from repro.faults import RetryPolicy
from repro.replication.cache import DataCache
from repro.replication.system import TrappSystem
from repro.service.results import ResultCache
from repro.service.routing import StickyRouter
from repro.service.scheduler import RefreshScheduler
from repro.sql.compiler import AnyQueryPlan, compile_statement
from repro.sql.parser import parse_statement
from repro.sql.steps import plan_steps
from repro.telemetry import Telemetry

__all__ = ["QueryService", "ServiceResult"]


@dataclass(frozen=True, slots=True)
class ServiceResult:
    """A service reply: the bounded answer plus serving metadata."""

    answer: BoundedAnswer
    #: True when this query did not execute itself: the answer came from
    #: the result cache, or from an identical query already in flight
    #: (single-flight).  ``answer.refreshed``/``answer.refresh_cost`` then
    #: describe the execution that produced the shared answer.
    cached: bool
    client_id: str
    #: The cache that served (or would have served) the query — the pinned
    #: cache, or the replica the router picked for a group query.
    cache_id: str = ""


class QueryService:
    """Admission + routing + result cache + coalesced refreshes over one system."""

    def __init__(
        self,
        system: TrappSystem,
        max_inflight: int = 64,
        max_inflight_per_client: int = 8,
        precision_floor: float = 0.0,
        result_ttl: float = 1.0,
        cost_model: BatchedCostModel | None = None,
        tick_interval: float = 0.0,
        network_delay: float = 0.0,
        telemetry: Telemetry | None = None,
        retry_policy: "RetryPolicy | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        self.system = system
        self.max_inflight_per_client = max_inflight_per_client
        self.precision_floor = precision_floor
        #: Replica selection for group queries: sticky by client.
        self._router = StickyRouter()
        #: One registry + tracer per deployment (PR 7): the service's own
        #: counters, the scheduler's, the result cache's, and the live
        #: system collectors all land here, and the ``metrics``/``trace``
        #: wire ops serve it.  Spans are timestamped on the system's
        #: simulation clock.
        if telemetry is None:
            telemetry = Telemetry(clock=system.clock.now)
        self.telemetry = telemetry
        telemetry.observe_system(system)
        self.scheduler = RefreshScheduler(
            cost_model=cost_model,
            tick_interval=tick_interval,
            network_delay=network_delay,
            on_refresh=self._on_refresh_dispatched,
            registry=telemetry.registry,
            retry_policy=retry_policy,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        self.results = ResultCache(
            ttl=result_ttl,
            clock=system.clock.now,
            registry=telemetry.registry,
        )
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._inflight_by_client: dict[str, int] = {}
        self._inflight_by_cache: dict[str, int] = {}
        #: Single-flight: identical queries already executing, by cache key.
        self._inflight_results: dict = {}
        #: Replicas mid-detach: kept out of routing while their in-flight
        #: queries drain, so the ledger count falls monotonically to zero.
        self._draining: set[str] = set()
        registry = telemetry.registry
        queries = registry.counter(
            "trapp_queries_total",
            "Queries by admission outcome",
            ("outcome",),
        )
        self._c_served = queries.labels(outcome="served")
        self._c_rejected = queries.labels(outcome="rejected")
        events = registry.counter(
            "trapp_service_events_total",
            "Serving-pipeline events: single-flight joins and re-plans after "
            "a recheck missed its constraint",
            ("event",),
        )
        self._c_singleflight = events.labels(event="singleflight_join")
        self._c_replan = events.labels(event="replan")
        #: Per-cache routing balance: every admitted query lands here
        #: under the replica that served it, router-picked or pinned.
        self._c_routed = registry.counter(
            "trapp_routed_queries_total",
            "Queries per serving cache (routing balance)",
            ("cache", "mode"),
        )
        self._h_admission_wait = registry.histogram(
            "trapp_admission_wait_seconds",
            "Wall-clock wait for the global in-flight semaphore",
        )
        #: Fraction of (tuple, leaf) decisions step 1 materialized from
        #: endpoint-index windows; observed only when the index route
        #: classified the query.  Low values mean binary search decided
        #: almost every tuple wholesale (the O(log n + k) regime).
        self._h_window_fraction = registry.histogram(
            "trapp_index_window_fraction",
            "Fraction of classification decisions taken from index windows",
            buckets=(
                0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0,
            ),
        )
        #: Per statement class (``aggregate``, ``join``, ``groupby``,
        #: ``topn``), one observation per query: how long it took from
        #: parse to answer — result-cache hits and single-flight joins
        #: included — and, when it executed, how many refresh plans its
        #: step generator yielded (a GROUP BY one per round for all its
        #: groups, a join over a bounded condition one per greedy round).
        self._h_query_seconds = registry.histogram(
            "trapp_query_seconds",
            "Wall-clock query latency inside the service, parse to answer",
            ("class",),
        )
        self._h_plan_rounds = registry.histogram(
            "trapp_plan_rounds",
            "Refresh plans one executed statement yielded",
            ("class",),
            buckets=(0, 1, 2, 3, 5, 8, 13, 21, 34, 55),
        )
        self._c_degraded = registry.counter(
            "trapp_degraded_answers_total",
            "Queries finished in degraded mode: bounds wider than requested "
            "because sources stayed unreachable",
        ).labels()

    # ------------------------------------------------------------------
    def _resolve_cache(
        self, cache_id: str, client_id: str, table_names: tuple[str, ...]
    ) -> tuple[DataCache, "object | None"]:
        """``(replica, group)`` for one query's target name.

        A concrete cache id pins that cache (its group, if any, still
        scopes result sharing); a group id routes across the group's
        replicas subscribed to *every* queried table — a join can only
        run on a replica holding all of its base tables.
        """
        if self.system.is_group(cache_id):
            group = self.system.group(cache_id)
            candidates = group.caches_of_table(table_names[0])
            for name in table_names[1:]:
                subscribed = {
                    c.cache_id for c in group.caches_of_table(name)
                }
                candidates = [
                    c for c in candidates if c.cache_id in subscribed
                ]
            if self._draining:
                # A draining replica finishes what it has but takes no new
                # queries — its clients re-stick to survivors *now*, not
                # at detach completion (membership-change re-sticking is
                # what the router's candidate-list contract provides).
                undrained = [
                    c for c in candidates if c.cache_id not in self._draining
                ]
                if undrained:
                    candidates = undrained
            if not candidates:
                raise ServiceError(
                    f"no cache in group {cache_id!r} is subscribed to "
                    f"every table in {table_names!r}"
                )
            return self._router.route(candidates, client_id), group
        cache = self.system.cache(cache_id)
        return cache, cache.group

    # ------------------------------------------------------------------
    async def query(
        self,
        cache_id: str,
        sql: str,
        client_id: str = "anon",
    ) -> ServiceResult:
        """Parse, admit, route, and execute one TRAPP SQL statement.

        Every statement class the compiler knows flows through here —
        §4 single-table aggregates, §7 joins, §8.1 GROUP BY and TOP-N,
        and registered extension aggregates such as MEDIAN.  All of them
        speak the shared step protocol (:func:`~repro.sql.steps.plan_steps`),
        so admission, routing, result caching, and coalesced refresh
        apply uniformly; a join's per-round selections decompose into
        per-table refresh plans the scheduler merges like any other.
        """
        trace = self.telemetry.tracer.start(client_id, sql)
        try:
            return await self._query_traced(cache_id, sql, client_id, trace)
        except (AdmissionError, ServiceOverloadError):
            trace.finish(status="rejected")
            raise
        except BaseException as exc:
            trace.finish(status="error", error=type(exc).__name__)
            raise

    async def _query_traced(
        self, cache_id: str, sql: str, client_id: str, trace
    ) -> ServiceResult:
        started = time.perf_counter()
        statement = parse_statement(sql)
        is_group = self.system.is_group(cache_id)
        cache, group = self._resolve_cache(cache_id, client_id, statement.tables)
        plan = compile_statement(statement, cache.catalog)
        self._admit(client_id, plan)
        try:
            return await self._serve(cache, group, is_group, plan, client_id, trace)
        finally:
            self._h_query_seconds.labels(
                **{"class": plan.statement_class}
            ).observe(time.perf_counter() - started)

    async def _serve(
        self,
        cache: DataCache,
        group,
        is_group: bool,
        plan: AnyQueryPlan,
        client_id: str,
        trace,
    ) -> ServiceResult:
        """An admitted query: result tiers, single-flight, then execution."""
        trace.step("admit", width=plan.constraint.width)
        trace.step(
            "route",
            cache=cache.cache_id,
            mode="routed" if is_group else "pinned",
        )
        self._c_routed.labels(
            cache=cache.cache_id, mode="routed" if is_group else "pinned"
        ).inc()

        def scoped_key(scope: str):
            return ResultCache.make_key(
                scope,
                plan.table_names,
                plan.aggregate,
                plan.column_key,
                plan.predicate,
                plan.constraint.width,
                extra=plan.cache_extra,
            )

        # Result scope: fan-out keeps a group's replicas interchangeable,
        # so their answers share one group-scoped entry (and one
        # single-flight leadership) — whether the query was routed or
        # pinned.  Without fan-out (standalone caches, or a fanout=False
        # group — the benchmark's independent-caches ablation) each cache
        # scopes its own entries and nothing coalesces across replicas,
        # mirroring the scheduler's gating exactly.
        shared = group is not None and group.fanout
        primary_key = scoped_key(group.group_id if shared else cache.cache_id)
        while True:
            hit = self.results.get(primary_key, plan.constraint.width)
            if hit is not None:
                self._c_served.inc()
                trace.finish(cached=True, source="result_cache", width=hit.width)
                return ServiceResult(
                    answer=hit,
                    cached=True,
                    client_id=client_id,
                    cache_id=cache.cache_id,
                )

            # Degraded tier (satellite 2): answers served under failure
            # live in a *cache-scoped* tier flagged in the key extra —
            # never the shared tier, where a sibling with working sources
            # would wrongly serve them.  Probed only once a degraded
            # answer exists, so fault-free runs never pay the lookup.
            if self._c_degraded.value:
                stale = self.results.get(
                    self._degraded_key(cache, plan),
                    plan.constraint.width,
                    allow_degraded=True,
                )
                if stale is not None:
                    self._c_served.inc()
                    trace.step(
                        "degraded",
                        sources=list(stale.unreachable_sources),
                        width=stale.width,
                    )
                    trace.finish(
                        cached=True, source="degraded_cache", width=stale.width
                    )
                    return ServiceResult(
                        answer=stale,
                        cached=True,
                        client_id=client_id,
                        cache_id=cache.cache_id,
                    )

            # Single-flight: an identical query is already executing —
            # await its answer instead of planning the same refresh again.
            # (The shield keeps one cancelled follower from cancelling the
            # shared future under the leader.)
            leader = self._inflight_results.get(primary_key)
            if leader is None:
                break
            try:
                answer = await asyncio.shield(leader)
            except asyncio.CancelledError:
                if leader.cancelled():
                    # The leader (not us) was cancelled mid-flight; go
                    # around and execute ourselves.
                    continue
                raise
            self._c_singleflight.inc()
            self._c_served.inc()
            trace.finish(cached=True, source="singleflight", width=answer.width)
            return ServiceResult(
                answer=answer,
                cached=True,
                client_id=client_id,
                cache_id=cache.cache_id,
            )

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Nobody may ever join before we finish; silence the "exception
        # never retrieved" warning for that case.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight_results[primary_key] = future
        try:
            answer = await self._execute(cache, plan, client_id, trace)
        except BaseException as exc:
            if not future.done():
                # Our own cancellation must read as "leader gone", not as
                # an error verdict on the query, so followers re-execute.
                if isinstance(exc, asyncio.CancelledError):
                    future.cancel()
                else:
                    future.set_exception(exc)
            raise
        finally:
            self._inflight_results.pop(primary_key, None)
        if not future.done():
            future.set_result(answer)
        if answer.degraded:
            self.results.put(self._degraded_key(cache, plan), answer)
        else:
            self.results.put(primary_key, answer)
        self._c_served.inc()
        trace.finish(cached=False, width=answer.width)
        return ServiceResult(
            answer=answer,
            cached=False,
            client_id=client_id,
            cache_id=cache.cache_id,
        )

    @staticmethod
    def _degraded_key(cache: DataCache, plan: AnyQueryPlan):
        """The cache-scoped result key for a degraded answer.

        The ``"degraded"`` marker in the key extra keeps these entries
        disjoint from healthy ones even under the same cache scope, and
        the scope is always the serving *cache*, never the group.
        """
        return ResultCache.make_key(
            cache.cache_id,
            plan.table_names,
            plan.aggregate,
            plan.column_key,
            plan.predicate,
            plan.constraint.width,
            extra=(plan.cache_extra, "degraded"),
        )

    # ------------------------------------------------------------------
    # Elastic membership: live detach / snapshot admit
    # ------------------------------------------------------------------
    async def detach_replica(self, group_id: str, cache_id: str) -> DataCache:
        """Drain and remove one replica from a serving group, live.

        The detach protocol, in order: (1) the replica stops receiving
        new work — routing skips it (its sticky clients re-stick to
        survivors immediately) and the scheduler stops picking it as a
        dispatch leader; (2) its in-flight queries *drain* — the service
        awaits the per-cache ledger reaching zero, so every admitted
        query finishes against the subscriptions it planned under;
        (3) the group tears the membership down
        (:meth:`~repro.replication.fanout.CacheGroup.detach_replica`:
        registry, fan-out, refresh-monitor trackers); (4) the replica's
        cache-scoped result entries are invalidated, so its degraded or
        private answers cannot outlive it.  Refuses to detach the last
        replica serving the group — a tier must not drain itself to
        nothing while clients hold its id.
        """
        group = self.system.group(group_id)
        cache = group.cache(cache_id)
        if len(group) <= 1:
            raise ServiceError(
                f"cache {cache_id!r} is the last replica of group "
                f"{group_id!r}; detaching it would leave nothing serving"
            )
        self._draining.add(cache_id)
        self.scheduler.exclude_leader(cache_id)
        try:
            while self._inflight_by_cache.get(cache_id, 0) > 0:
                await asyncio.sleep(self.scheduler.tick_interval or 0)
            table_names = list(cache.catalog.names())
            detached = self.system.detach_cache(cache_id)
        finally:
            self._draining.discard(cache_id)
            self.scheduler.readmit_leader(cache_id)
        for table_name in table_names:
            self.results.invalidate_table(table_name, {cache_id})
        return detached

    def admit_replica(
        self,
        group_id: str,
        cache_id: str,
        region: str | None = None,
        cost_model: BatchedCostModel | None = None,
        from_cache: str | None = None,
    ):
        """Add a late-joining replica to a serving group via snapshot.

        Synchronous on purpose: the snapshot transfer
        (:meth:`~repro.replication.fanout.CacheGroup.admit_replica`) runs
        between awaits, so no scheduler tick and no query observes a
        half-admitted member.  The joiner arrives carrying a sibling's
        bound functions and width-policy state — in fan-out lockstep from
        its first query — and becomes routable immediately.  Returns the
        transfer's :class:`~repro.replication.cache.BatchedRefreshReceipt`
        priced under the donor's cost model (falling back to the
        scheduler's).
        """
        _, receipt = self.system.admit_cache(
            cache_id,
            self.system.group(group_id),
            from_cache=from_cache,
            region=region,
            cost_model=cost_model,
            default_model=self.scheduler.cost_model,
        )
        return receipt

    # ------------------------------------------------------------------
    def _admit(self, client_id: str, plan: AnyQueryPlan) -> None:
        floor = self.precision_floor
        if (
            floor > 0
            and isinstance(plan.constraint, AbsolutePrecision)
            and plan.constraint.width < floor
        ):
            self._c_rejected.inc()
            raise AdmissionError(
                f"client {client_id!r} may not request precision tighter than "
                f"WITHIN {floor:g} (asked for WITHIN {plan.constraint.width:g})"
            )
        allowance = self.max_inflight_per_client
        if self._inflight_by_client.get(client_id, 0) >= allowance:
            self._c_rejected.inc()
            raise ServiceOverloadError(
                f"client {client_id!r} already has {allowance} queries in flight"
            )

    # ------------------------------------------------------------------
    def _on_refresh_dispatched(
        self, caches: list, table_name: str, tids: frozenset
    ) -> None:
        """Scheduler hook: evict cached answers a dispatched refresh staled.

        The refresh revealed fresh master values for ``table_name`` on
        every cache in ``caches`` (fan-out included), so answers computed
        from the pre-refresh values must not be served for their
        remaining TTL.  Scopes cover the tightened caches and their
        groups' shared tiers.
        """
        scopes = set()
        for cache in caches:
            scopes.add(cache.cache_id)
            if cache.group is not None:
                scopes.add(cache.group.group_id)
        self.results.invalidate_table(table_name, scopes)

    # ------------------------------------------------------------------
    async def _execute(
        self,
        cache: DataCache,
        plan: AnyQueryPlan,
        client_id: str,
        trace,
    ) -> BoundedAnswer:
        """Run one statement's step generator through the scheduler.

        Bounds are synced on every execution, whoever is suspended on the
        cache: a plan they widen under fails its recheck and plans again.
        """
        cache_id = cache.cache_id
        self._inflight_by_client[client_id] = (
            self._inflight_by_client.get(client_id, 0) + 1
        )
        self._inflight_by_cache[cache_id] = (
            self._inflight_by_cache.get(cache_id, 0) + 1
        )
        try:
            wait_started = time.perf_counter()
            async with self._semaphore:
                self._h_admission_wait.observe(
                    time.perf_counter() - wait_started
                )
                cache.sync_bounds()
                steps = plan_steps(plan)
                rounds = 0
                try:
                    request = next(steps)
                    while True:
                        rounds += 1
                        if request.replan:
                            self._c_replan.inc()
                        trace.step(
                            "plan",
                            table=request.table.name,
                            tuples=len(request.plan.tids),
                        )
                        effective = await self.scheduler.submit(
                            cache, request, trace=trace
                        )
                        request = steps.send(effective)
                except StopIteration as stop:
                    answer = stop.value
                self._h_plan_rounds.labels(
                    **{"class": plan.statement_class}
                ).observe(rounds)
        finally:
            self._inflight_by_client[client_id] -= 1
            # Drop zeroed entries: a long-running server sees unboundedly
            # many distinct client ids (and routed cache sets change with
            # group membership).
            if self._inflight_by_client[client_id] <= 0:
                del self._inflight_by_client[client_id]
            self._inflight_by_cache[cache_id] -= 1
            if self._inflight_by_cache[cache_id] <= 0:
                del self._inflight_by_cache[cache_id]
        fraction = answer.index_window_fraction
        if fraction is not None:
            self._h_window_fraction.observe(fraction)
            trace.step("classify", window_fraction=fraction)
        if answer.degraded:
            self._c_degraded.inc()
            trace.step(
                "degraded",
                sources=list(answer.unreachable_sources),
                width=answer.width,
            )
        return answer
