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
query's ``sync_bounds`` (every execution first syncs the columns it
reads) or a value-initiated refresh — is answered by the step generators
themselves: a recheck that misses its constraint plans again over the
current bounds (counted as ``trapp_service_events_total{event="replan"}``).

A repeated statement is parsed, compiled and keyed once: the service
keeps each text's parsed statement, and per ``(text, routed cache)`` the
compiled plan, the columns it reads and its result-cache key — served
only while every table the plan names *is* that cache's current catalog
table, so a replica detached and added again, or a new replica under an
old id, compiles afresh.  Both maps are least-recently-used, bounded by
:data:`STATEMENT_CACHE_ENTRIES`; an error is never cached.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.answer import BoundedAnswer
from repro.core.constraints import AbsolutePrecision
from repro.errors import AdmissionError, ServiceError, ServiceOverloadError
from repro.extensions.batching import UNIFORM_PRICE, BatchedCostModel, checked_price
from repro.faults import RetryPolicy
from repro.replication.cache import DataCache
from repro.replication.system import TrappSystem
from repro.service.results import ResultCache
from repro.service.routing import StickyRouter
from repro.service.scheduler import RefreshScheduler
from repro.sql.ast import SelectStatement
from repro.sql.compiler import AnyQueryPlan, compile_statement
from repro.sql.parser import parse_statement
from repro.sql.steps import plan_steps
from repro.telemetry import Telemetry

__all__ = ["QueryService", "ServiceResult", "STATEMENT_CACHE_ENTRIES"]

#: Parsed statements, and compiled plans per ``(text, routed cache)``,
#: the service keeps; beyond this many the least recently used is dropped.
STATEMENT_CACHE_ENTRIES = 1024


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


@dataclass(slots=True)
class _Prepared:
    """One statement compiled for one cache: its plan, the columns an
    execution syncs, and its result-cache key."""

    plan: AnyQueryPlan
    #: What ``sync_bounds`` brings up to the clock (``None``: every column).
    columns_read: tuple[tuple[str, str], ...] | None
    #: The scope the key was last rendered for: a statement on one cache
    #: keeps one scope until the cache joins or leaves a fan-out group.
    scope: str | None = None
    scoped_key: tuple | None = None

    def key(self, scope: str) -> tuple:
        """The result-cache key under ``scope`` (a cache or group id)."""
        if scope != self.scope:
            self.scope, self.scoped_key = scope, _result_key(self.plan, scope)
        return self.scoped_key


def _result_key(plan: AnyQueryPlan, scope: str, degraded: bool = False) -> tuple:
    """A plan's result-cache key under ``scope``.

    The ``"degraded"`` marker in a degraded key's extra keeps those
    entries disjoint from healthy ones under the same scope.
    """
    return ResultCache.make_key(
        scope,
        plan.table_names,
        plan.aggregate,
        plan.column_key,
        plan.predicate,
        plan.constraint.width,
        extra=(plan.cache_extra, "degraded") if degraded else plan.cache_extra,
    )


class QueryService:
    """Admission + routing + result cache + coalesced refreshes over one system."""

    def __init__(
        self,
        system: TrappSystem,
        max_inflight: int = 64,
        max_inflight_per_client: int = 8,
        precision_floor: float = 0.0,
        result_ttl: float = 1.0,
        cost_model: BatchedCostModel = UNIFORM_PRICE,
        tick_interval: float = 0.0,
        retry_policy: "RetryPolicy | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        checked_price(cost_model)
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
        self.telemetry = telemetry = Telemetry(clock=system.clock.now)
        telemetry.observe_system(system)
        self.scheduler = RefreshScheduler(
            cost_model=cost_model,
            tick_interval=tick_interval,
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
        #: The statement cache: text → parsed statement, and
        #: ``(text, cache id)`` → compiled plan; LRU, both bounded by
        #: :data:`STATEMENT_CACHE_ENTRIES`.
        self._statements: OrderedDict[str, SelectStatement] = OrderedDict()
        self._prepared: OrderedDict[tuple[str, str], _Prepared] = OrderedDict()
        #: Labeled children of the per-query families, by label values.
        self._children: dict[tuple, object] = {}
        registry = telemetry.registry
        statement_events = registry.counter(
            "trapp_statement_cache_events_total",
            "Statement-cache behavior: plans served without parse or "
            "compile, plans compiled, entries dropped past the bound",
            ("event",),
        )
        self._c_statement_hit = statement_events.labels(event="hit")
        self._c_statement_miss = statement_events.labels(event="miss")
        self._c_statement_eviction = statement_events.labels(event="eviction")
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
        statement = self._parse(sql)
        is_group = self.system.is_group(cache_id)
        cache, group = self._resolve_cache(cache_id, client_id, statement.tables)
        prepared = self._prepare(sql, statement, cache)
        plan = prepared.plan
        self._admit(client_id, plan)
        try:
            return await self._serve(
                cache, group, is_group, prepared, client_id, trace
            )
        finally:
            self._bound(self._h_query_seconds, plan.statement_class).observe(
                time.perf_counter() - started
            )

    def _bound(self, family, *values: str):
        """``family``'s child for the label ``values`` (in the family's
        label order), bound on first use and kept."""
        key = (family.name, *values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = family.labels(
                **dict(zip(family.labelnames, values))
            )
        return child

    def _parse(self, sql: str) -> SelectStatement:
        """The statement ``sql`` parses to, parsed once per text."""
        statement = self._statements.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            self._remember(self._statements, sql, statement)
        else:
            self._statements.move_to_end(sql)
        return statement

    def _prepare(
        self, sql: str, statement: SelectStatement, cache: DataCache
    ) -> _Prepared:
        """The statement compiled for ``cache``: the cached plan while
        every table it names is still the cache's, else a fresh compile
        (an error propagates and leaves nothing behind)."""
        key = (sql, cache.cache_id)
        prepared = self._prepared.get(key)
        if prepared is not None and all(
            cache.catalog.holds(table) for table in prepared.plan.tables
        ):
            self._prepared.move_to_end(key)
            self._c_statement_hit.inc()
            return prepared
        self._c_statement_miss.inc()
        plan = compile_statement(statement, cache.catalog)
        prepared = _Prepared(plan, plan.columns_read)
        self._remember(self._prepared, key, prepared)
        return prepared

    def _remember(self, entries: OrderedDict, key, value) -> None:
        """Insert (or renew) one statement-cache entry, dropping the
        least recently used past :data:`STATEMENT_CACHE_ENTRIES`."""
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > STATEMENT_CACHE_ENTRIES:
            entries.popitem(last=False)
            self._c_statement_eviction.inc()

    async def _serve(
        self,
        cache: DataCache,
        group,
        is_group: bool,
        prepared: _Prepared,
        client_id: str,
        trace,
    ) -> ServiceResult:
        """An admitted query: result tiers, single-flight, then execution."""
        plan = prepared.plan
        trace.step("admit", width=plan.constraint.width)
        mode = "routed" if is_group else "pinned"
        trace.step("route", cache=cache.cache_id, mode=mode)
        self._bound(self._c_routed, cache.cache_id, mode).inc()

        # Result scope: fan-out keeps a group's replicas interchangeable,
        # so their answers share one group-scoped entry (and one
        # single-flight leadership) — whether the query was routed or
        # pinned.  Without fan-out (standalone caches, or a fanout=False
        # group — the benchmark's independent-caches ablation) each cache
        # scopes its own entries and nothing coalesces across replicas,
        # mirroring the scheduler's gating exactly.
        shared = group is not None and group.fanout
        primary_key = prepared.key(group.group_id if shared else cache.cache_id)
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
                    _result_key(plan, cache.cache_id, degraded=True),
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
            answer = await self._execute(cache, prepared, client_id, trace)
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
            self.results.put(_result_key(plan, cache.cache_id, degraded=True), answer)
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
        private answers cannot outlive it, and its compiled plans dropped.  Refuses to detach the last
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
        # Its plans name its tables: drop them rather than keep the
        # detached tables alive until the LRU reaches them.
        for key in [key for key in self._prepared if key[1] == cache_id]:
            del self._prepared[key]
        return detached

    def admit_replica(
        self,
        group_id: str,
        cache_id: str,
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
        prepared: _Prepared,
        client_id: str,
        trace,
    ) -> BoundedAnswer:
        """Run one statement's step generator through the scheduler.

        The columns the plan reads are synced on every execution, whoever
        is suspended on the cache: a plan they widen under fails its
        recheck and plans again.
        """
        plan = prepared.plan
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
                self._bound(self._h_admission_wait).observe(
                    time.perf_counter() - wait_started
                )
                cache.sync_bounds(prepared.columns_read)
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
                self._bound(
                    self._h_plan_rounds, plan.statement_class
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
