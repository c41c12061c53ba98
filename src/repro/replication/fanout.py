"""Multi-cache replication fan-out: groups of bounded-replica caches.

TRAPP is a *replication* system — bounded values live in caches near
users while masters stay at the sources (§1, Figure 3) — and one cache
per deployment was the last single-box assumption left in this repo.  A
:class:`CacheGroup` organizes N :class:`~repro.replication.cache.DataCache`
replicas subscribing to overlapping source/shard sets into one logical
serving tier:

* **subscription registry** — the group tracks which caches hold which
  table (and, through each cache's tables, which tuples), so routers and
  schedulers can answer "who can serve this query / absorb this refresh"
  without probing every cache;
* **source-side update fan-out** — joining a group flips
  :attr:`~repro.replication.source.DataSource.refresh_fanout` on every
  source its members subscribe to, so one cache's paid query-initiated
  refresh pushes the fresh master value to every sibling tracking the
  object (a refresh any cache pays for tightens bounds group-wide), and
  master mutations keep reaching every subscribed cache through the
  ordinary value-initiated/cardinality protocol;
* **per-cache placement state** — region labels and per-cache
  :class:`~repro.extensions.batching.BatchedCostModel`\\ s (a replica near
  a shard refreshes it cheaply), which the refresh scheduler uses to
  dispatch each source's batched message from the *cheapest* subscribed
  replica.

Replicas that subscribe to the same tables at the same time with the same
width policies evolve in lockstep under fan-out (the source advances every
sibling's policy through the same feedback sequence), which is what makes
K caches behind a group answer bit-identically to a single cache — the
acceptance property in ``tests/property/test_group_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ReplicationProtocolError, TrappError
from repro.extensions.batching import (
    UNIFORM_PRICE,
    BatchedCostModel,
    cheapest,
    checked_price,
)
from repro.replication.cache import DataCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.replication.source import DataSource

__all__ = ["CacheGroup"]


class CacheGroup:
    """N bounded-replica caches serving one logical tier.

    ``fanout=True`` (the default) turns on source-side refresh fan-out for
    every source the members subscribe to; ``fanout=False`` keeps replicas
    independent (each pays its own refreshes), the baseline the
    ``fanout.independent.*`` golden values price fan-out against.
    """

    def __init__(self, group_id: str, fanout: bool = True) -> None:
        self.group_id = group_id
        self.fanout = fanout
        self._caches: dict[str, DataCache] = {}
        self._regions: dict[str, str | None] = {}
        self._cost_models: dict[str, BatchedCostModel] = {}
        #: Subscription registry: table name → cache ids holding it.
        self._tables: dict[str, set[str]] = {}
        #: Replica-set invariant: table name → the source (shard) ids its
        #: replicas subscribe from.  Cross-cache merging and leader
        #: redirects assume any member can refresh the table's tuples, so
        #: divergent source sets are rejected at subscribe time.
        self._table_sources: dict[str, frozenset[str]] = {}
        #: The subset of ``_table_sources`` that came from *declared*
        #: subscriptions (subscribe-time shard lists, which see empty
        #: shards too) — declared sets must match exactly; only
        #: subscription-derived sets get subset tolerance.
        self._declared_sources: dict[str, frozenset[str]] = {}
        #: Tables some member subscribes 1:1 (classic table↔source, no
        #: shard map).  A 1:1 member can only replicate a 1:1 table, so
        #: these admit no subset tolerance at all — the discriminator
        #: that keeps a single-*shard* subscription of a striped table
        #: (also unsharded from the cache's view) out of the group.
        self._one_to_one_tables: set[str] = set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_replica(
        self,
        cache: DataCache,
        region: str | None = None,
        cost_model: BatchedCostModel | None = None,
    ) -> DataCache:
        """Enroll one cache: registry, region label, cost model, fan-out.

        Subscriptions the cache already holds are absorbed into the
        registry; later ``subscribe_table`` calls report back through the
        cache's group pointer.
        """
        checked_price(cost_model, override=True)
        if cache.cache_id in self._caches:
            raise ReplicationProtocolError(
                f"group {self.group_id!r} already contains cache "
                f"{cache.cache_id!r}"
            )
        if cache.group is not None:
            raise ReplicationProtocolError(
                f"cache {cache.cache_id!r} already belongs to group "
                f"{cache.group.group_id!r}; caches replicate within one group"
            )
        # Validate everything that can fail *before* mutating any state —
        # a rejected replica must leave the group, the cache, and every
        # source exactly as they were.
        self._check_fanout_conflict(cache.subscribed_sources())
        absorbed = {
            table.name: (
                cache.source_ids_of_table(table.name),
                not table.is_sharded,
            )
            for table in cache.catalog
        }
        for table_name, (source_ids, one_to_one) in absorbed.items():
            self._check_table_sources(
                table_name, source_ids, declared=False, one_to_one=one_to_one
            )
        self._caches[cache.cache_id] = cache
        self._regions[cache.cache_id] = region
        if cost_model is not None:
            self._cost_models[cache.cache_id] = cost_model
        cache.group = self
        for table_name, (source_ids, one_to_one) in absorbed.items():
            self._tables.setdefault(table_name, set()).add(cache.cache_id)
            self._record_table_sources(
                table_name, source_ids, declared=False, one_to_one=one_to_one
            )
        self._enable_fanout(cache.subscribed_sources())
        return cache

    def _discard_replica(self, cache: DataCache) -> None:
        """Undo a just-completed enrollment (creation rollback only).

        Valid only while the cache holds no subscriptions — nothing was
        recorded in the table registry or the fan-out memberships yet, so
        dropping the membership entries restores the group exactly.
        """
        self._caches.pop(cache.cache_id, None)
        self._regions.pop(cache.cache_id, None)
        self._cost_models.pop(cache.cache_id, None)
        for cache_ids in self._tables.values():
            cache_ids.discard(cache.cache_id)
        if cache.group is self:
            cache.group = None

    def detach_replica(self, cache: "DataCache | str") -> DataCache:
        """Remove one member and tear down everything it subscribed to.

        The live-membership counterpart of :meth:`add_replica`: the
        departing cache leaves the registry (tables no remaining member
        holds drop their replica-set invariants too), its subscriptions
        are unwound at every source — which evicts its refresh-monitor
        trackers, so the per-object cache index holds no phantom
        subscribers — and sources no remaining member subscribes to stop
        fanning out.  The cache object comes back empty and group-less,
        ready for :meth:`admit_replica` elsewhere.

        Group-level detach permits shrinking to zero members; serving
        tiers that must stay available enforce their own floor (the
        query service refuses to detach the last replica).
        """
        cache = cache if isinstance(cache, DataCache) else self.cache(cache)
        if self._caches.get(cache.cache_id) is not cache:
            raise ReplicationProtocolError(
                f"group {self.group_id!r} does not contain cache "
                f"{cache.cache_id!r}"
            )
        departing_sources = cache.subscribed_sources()
        del self._caches[cache.cache_id]
        self._regions.pop(cache.cache_id, None)
        self._cost_models.pop(cache.cache_id, None)
        for table_name in list(self._tables):
            cache_ids = self._tables[table_name]
            cache_ids.discard(cache.cache_id)
            if not cache_ids:
                # No member holds the table any more: its replica-set
                # invariants describe nothing and must not constrain a
                # future (possibly differently sharded) subscription.
                del self._tables[table_name]
                self._table_sources.pop(table_name, None)
                self._declared_sources.pop(table_name, None)
                self._one_to_one_tables.discard(table_name)
        cache.group = None
        cache.unsubscribe_all()
        if self.fanout:
            remaining = {
                source.source_id
                for member in self._caches.values()
                for source in member.subscribed_sources()
            }
            for source in departing_sources:
                if (
                    source.refresh_fanout is self
                    and source.source_id not in remaining
                ):
                    source.refresh_fanout = False
        return cache

    def admit_replica(
        self,
        cache: DataCache,
        region: str | None = None,
        cost_model: BatchedCostModel | None = None,
        from_cache: "DataCache | str | None" = None,
        default_model: BatchedCostModel = UNIFORM_PRICE,
    ):
        """Bring a late joiner up from a sibling's snapshot, then enroll it.

        Unlike cold enrollment (``add_replica`` + ``subscribe_table``,
        which ``register()``\\ s every object and mints fresh bound
        functions), admission transfers the donor's cached tables, exact
        bound functions, and deep-copied width-policy state via
        :meth:`DataCache.adopt_snapshot` — the joiner enters the group's
        policy lockstep mid-sequence and serves its first query without
        any resubscription refresh.  The donor is ``from_cache`` when
        given, otherwise the member whose cost model prices the transfer
        cheapest (:meth:`_select_donor`).

        Returns the transfer's
        :class:`~repro.replication.cache.BatchedRefreshReceipt`, priced
        under the donor's cost model (falling back to ``default_model``)
        so the admission cost is booked like any other bulk movement of
        bound state.
        """
        checked_price(cost_model, override=True)
        checked_price(default_model)
        if not self._caches:
            raise ReplicationProtocolError(
                f"group {self.group_id!r} is empty; admission needs a donor "
                "— seed the group with add_replica + subscribe_table"
            )
        if cache.cache_id in self._caches or cache.group is not None:
            raise ReplicationProtocolError(
                f"cache {cache.cache_id!r} already belongs to a group; "
                "admission is for fresh caches"
            )
        if from_cache is None:
            donor = self._select_donor(default_model)
        elif isinstance(from_cache, DataCache):
            donor = self.cache(from_cache.cache_id)
        else:
            donor = self.cache(from_cache)
        receipt = cache.adopt_snapshot(
            donor, self.cost_model_for(donor.cache_id, default_model)
        )
        try:
            self.add_replica(cache, region=region, cost_model=cost_model)
        except Exception:
            # Enrollment rejections must not strand adopted trackers.
            cache.unsubscribe_all()
            raise
        cache.sync_bounds()
        return receipt

    def _select_donor(self, default_model: BatchedCostModel) -> DataCache:
        """The member whose snapshot transfer prices cheapest.

        Sums ``batch_cost(source, n_tuples)`` over each member's
        subscribed sources under that member's price
        (:meth:`cost_model_for`); deterministic
        cache-id tie-break — the same ranking discipline as
        :meth:`leader_for_source`, applied to the whole snapshot.
        """

        def rank(member: DataCache) -> tuple[float, str]:
            model = self.cost_model_for(member.cache_id, default_model)
            tuples_by_source = Counter(
                source.source_id
                for owners in member._owners.values()
                for source in owners.values()
            )
            price = sum(
                model.batch_cost(source_id, n_tuples)
                for source_id, n_tuples in tuples_by_source.items()
            )
            return price, member.cache_id

        return min(self._caches.values(), key=rank)

    def check_subscription(
        self,
        cache: DataCache,
        table_name: str,
        sources: Iterable["DataSource"],
        one_to_one: bool = False,
    ) -> None:
        """Raise-only pre-check for a member's upcoming subscription.

        Called by :meth:`DataCache.subscribe_table` *before* it touches
        any state, so a rejected subscription (fan-out conflict, or a
        source set diverging from the table's other replicas) leaves the
        cache, the group registry, and the sources untouched.
        ``one_to_one`` marks the classic unsharded table↔source layout.
        """
        sources = tuple(sources)
        self._check_fanout_conflict(sources)
        self._check_table_sources(
            table_name,
            frozenset(source.source_id for source in sources),
            declared=True,
            one_to_one=one_to_one,
        )

    def _on_subscribe(
        self,
        cache: DataCache,
        table_name: str,
        sources: Iterable["DataSource"],
        one_to_one: bool = False,
    ) -> None:
        """Registry + fan-out upkeep for one (cache, table) subscription.

        Infallible by construction: :meth:`check_subscription` vetted the
        same inputs before the subscription was committed.
        """
        sources = tuple(sources)
        self._tables.setdefault(table_name, set()).add(cache.cache_id)
        self._record_table_sources(
            table_name,
            frozenset(source.source_id for source in sources),
            declared=True,
            one_to_one=one_to_one,
        )
        self._enable_fanout(sources)

    # ------------------------------------------------------------------
    # Replica-set invariants
    # ------------------------------------------------------------------
    def _check_table_sources(
        self,
        table_name: str,
        source_ids: frozenset[str],
        declared: bool,
        one_to_one: bool = False,
    ) -> None:
        """Replicas of one table must share its source (shard) set.

        The scheduler's cross-cache merge and leader redirect are only
        sound when any member can refresh the table's tuples from the
        same sources; two members serving the same table name from
        different sources would route a redirected batch to the wrong
        masters — including a member that subscribed a *single shard* of
        a striped table (each shard's partition carries the table's
        name), which would answer group queries over a fraction of the
        tuples.  Two ``declared`` (subscribe-time) sets must therefore be
        *equal*; subset tolerance applies only when a subscription-derived
        set is involved, because those cannot see shards that currently
        own no tuples — and never when either side is a ``one_to_one``
        (unsharded) layout, whose single source IS its full extent.
        """
        if not source_ids:
            return
        # 1:1 layouts admit no tolerance in either direction: a member
        # holding the table unsharded can only be a replica of a table
        # every other member holds from exactly the same single source.
        if one_to_one or table_name in self._one_to_one_tables:
            recorded = self._declared_sources.get(table_name)
            if recorded is None:
                recorded = self._table_sources.get(table_name)
            if recorded is not None and source_ids != recorded:
                self._raise_divergent(table_name, recorded, source_ids)
            return
        declared_recorded = self._declared_sources.get(table_name)
        if declared and declared_recorded is not None:
            if source_ids != declared_recorded:
                self._raise_divergent(table_name, declared_recorded, source_ids)
            return
        recorded = declared_recorded
        if recorded is None:
            recorded = self._table_sources.get(table_name)
        if recorded is None:
            return
        if not (source_ids <= recorded or recorded <= source_ids):
            self._raise_divergent(table_name, recorded, source_ids)

    def _raise_divergent(
        self, table_name: str, recorded: frozenset[str], incoming: frozenset[str]
    ) -> None:
        raise ReplicationProtocolError(
            f"group {self.group_id!r} replicates table {table_name!r} "
            f"from sources {sorted(recorded)}; a replica subscribing "
            f"it from {sorted(incoming)} would break cross-cache "
            "refresh interchangeability"
        )

    def _record_table_sources(
        self,
        table_name: str,
        source_ids: frozenset[str],
        declared: bool,
        one_to_one: bool = False,
    ) -> None:
        self._table_sources[table_name] = (
            self._table_sources.get(table_name, frozenset()) | source_ids
        )
        if declared and table_name not in self._declared_sources:
            self._declared_sources[table_name] = source_ids
        if one_to_one and source_ids:
            self._one_to_one_tables.add(table_name)

    def _check_fanout_conflict(self, sources: Iterable["DataSource"]) -> None:
        """Raise if any source already fans out to a *different* group."""
        if not self.fanout:
            return
        for source in sources:
            current = source.refresh_fanout
            if current and current is not True and current is not self:
                raise ReplicationProtocolError(
                    f"source {source.source_id!r} already fans out to group "
                    f"{getattr(current, 'group_id', current)!r}; a source "
                    "feeds one fan-out group"
                )

    def _enable_fanout(self, sources: Iterable["DataSource"]) -> None:
        """Install this group as each source's fan-out membership.

        The group object itself is the membership test (``cache_id in
        group``), so pushes reach only member caches — a standalone cache
        sharing the source keeps its own refresh schedule and width
        policies.  ``refresh_fanout=True`` (set manually) means "push to
        everyone" and is left alone; a *different* group on the same
        source was rejected by :meth:`_check_fanout_conflict` before any
        state changed.
        """
        if not self.fanout:
            return
        self._check_fanout_conflict(sources)
        for source in sources:
            if source.refresh_fanout is True:
                continue
            source.refresh_fanout = self

    # ------------------------------------------------------------------
    # Introspection (the registry routers and schedulers read)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._caches)

    def __iter__(self) -> Iterator[DataCache]:
        for cache_id in sorted(self._caches):
            yield self._caches[cache_id]

    def __contains__(self, cache: object) -> bool:
        if isinstance(cache, DataCache):
            return cache.group is self
        return cache in self._caches

    def cache_ids(self) -> list[str]:
        return sorted(self._caches)

    def cache(self, cache_id: str) -> DataCache:
        try:
            return self._caches[cache_id]
        except KeyError:
            raise TrappError(
                f"group {self.group_id!r} has no cache {cache_id!r}"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def caches_of_table(self, table_name: str) -> list[DataCache]:
        """Replicas subscribed to one table, in deterministic id order."""
        return [
            self._caches[cache_id]
            for cache_id in sorted(self._tables.get(table_name, ()))
        ]

    def caches_holding(self, table_name: str, tid: int) -> list[str]:
        """Cache ids currently holding one tuple of a table (tuple-level
        registry view: subscription minus any straggling deletes)."""
        return [
            cache.cache_id
            for cache in self.caches_of_table(table_name)
            if tid in cache.table(table_name)
        ]

    def region_of(self, cache_id: str) -> str | None:
        self.cache(cache_id)  # raise on unknown ids
        return self._regions.get(cache_id)

    def cost_model_for(
        self, cache_id: str, default_model: BatchedCostModel = UNIFORM_PRICE
    ) -> BatchedCostModel:
        """The price of one member's round trips: its own cost model, or
        else the deployment's ``default_model`` (uniform when the
        deployment names none)."""
        return self._cost_models.get(cache_id, default_model)

    # ------------------------------------------------------------------
    # Scheduler support: where should a source's batched message go from?
    # ------------------------------------------------------------------
    def leader_for_source(
        self,
        table_name: str,
        source_id: str,
        n_tuples: int,
        default_model: BatchedCostModel = UNIFORM_PRICE,
        exclude: "frozenset[str] | set[str]" = frozenset(),
    ) -> tuple["DataCache | None", "BatchedCostModel | None"]:
        """The cheapest subscribed replica to dispatch one source's batch.

        Prices ``setup + marginal · n_tuples`` under each candidate's
        price (:meth:`cost_model_for`); deterministic
        cache-id tie-break.  This is the replication win the §8.2 model
        predicts: with per-region cost heterogeneity, every source's
        message travels its cheapest path, and fan-out hands the refreshed
        values to everyone else for free.

        ``exclude`` names replicas that must not be chosen — the
        scheduler's failover path passes the crashed leaders it already
        tried.  When exclusion empties the candidate pool the group
        returns ``(None, None)`` (nobody left to fail over to); an empty
        pool with no exclusions is still a protocol error.
        """
        candidates = self.caches_of_table(table_name)
        if not candidates:
            raise ReplicationProtocolError(
                f"group {self.group_id!r} has no cache subscribed to table "
                f"{table_name!r}"
            )
        if exclude:
            candidates = [
                cache for cache in candidates if cache.cache_id not in exclude
            ]
            if not candidates:
                return None, None
        priced = [
            (cache, self.cost_model_for(cache.cache_id, default_model))
            for cache in candidates
        ]
        return min(
            priced,
            key=lambda pair: (
                pair[1].batch_cost(source_id, n_tuples),
                pair[0].cache_id,
            ),
        )

    def pricing_model(
        self, default_model: BatchedCostModel = UNIFORM_PRICE
    ) -> BatchedCostModel:
        """The group's *effective* per-source pricing: the cheapest member.

        Leader selection dispatches every source's batch through the
        member whose model prices it lowest, so what a grouped refresh
        actually pays for source S is ``min`` over member models — this
        is the model plan-improvement passes (cross-query rebatching)
        should optimize against, not any single member's own prices.
        """
        return cheapest(
            [self.cost_model_for(cache_id, default_model) for cache_id in self._caches]
            or [default_model]
        )

    def __repr__(self) -> str:
        return (
            f"CacheGroup({self.group_id!r}, caches={self.cache_ids()!r}, "
            f"tables={self.table_names()!r}, fanout={self.fanout})"
        )
