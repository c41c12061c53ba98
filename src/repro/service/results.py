"""A short-TTL cache of bounded answers for repeat queries.

A bounded answer stays *valid* as long as the cached bounds it was
computed from have not widened past the query's constraint — over a short
horizon, an answer computed for one client can serve an identical query
from another client without touching the executor at all.  Entries are
keyed on the full query identity ``(cache, table, aggregate, column,
predicate, width)`` and are served only while young (``ttl``, measured on
the system's clock so simulated-time tests stay deterministic) *and*
still satisfying the requested constraint — a stale or too-wide entry is
never returned.

Each held answer may carry one *attachment*, a value its user derived
from it (the server keeps the answer's encoded reply payload there), kept
while the answer is held and dropped with it.

This is deliberately conservative: a bound that satisfied ``WITHIN R`` at
time ``t`` is a *correct* answer at ``t + ttl`` only if its objects'
bound growth over ``ttl`` is tolerated by the deployment.  The TTL
defaults are therefore tiny, and the cache re-checks
:meth:`~repro.core.answer.BoundedAnswer.meets` on every hit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterable

from repro.core.answer import BoundedAnswer
from repro.predicates.ast import Predicate
from repro.telemetry.registry import MetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """An LRU + TTL cache of :class:`BoundedAnswer` keyed by query identity.

    Hit/miss/expiry/eviction/invalidation counters live in the telemetry
    registry (``trapp_result_cache_events_total``).
    """

    def __init__(
        self,
        ttl: float,
        clock: Callable[[], float],
        max_entries: int = 2048,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.ttl = ttl
        self.clock = clock
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, tuple[BoundedAnswer, float]] = (
            OrderedDict()
        )
        #: ``id(answer)`` → ``[key, attachment]`` for every answer held.
        #: The answer is alive while held, so its id names it alone.
        self._held: dict[int, list] = {}
        # Refresh-driven invalidation index: (scope, table) → keys, where
        # scope is the cache or group id the entry was stored under.  A
        # dispatched refresh that updates table T evicts T's entries
        # directly instead of waiting for TTL/width expiry.
        self._by_table: dict[tuple[str, str], set[Hashable]] = {}
        # A standalone cache (no service) gets a private registry.
        if registry is None:
            registry = MetricsRegistry()
        family = registry.counter(
            "trapp_result_cache_events_total",
            "Result-cache behavior: hits, misses, expiries, evictions, "
            "refresh-driven invalidations",
            ("event",),
        )
        self._events = {
            event: family.labels(event=event)
            for event in (
                "hit", "miss", "expiration", "eviction", "invalidation"
            )
        }
        self._g_entries = registry.gauge(
            "trapp_result_cache_entries",
            "Bounded answers currently held by the result cache",
        )

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        cache_id: str,
        tables: "str | tuple[str, ...]",
        aggregate: str,
        column: "Hashable | None",
        predicate: Predicate | None,
        max_width: float,
        extra: Hashable = None,
    ) -> Hashable:
        """The full identity of a query.

        ``tables`` is the table name for single-table statements or the
        ordered tuple of referenced table names for joins; ``column``
        accordingly a column name or a join's ``(table, column)`` pair.
        ``extra`` carries statement-class identity beyond the aggregate —
        GROUP BY columns, a TOP-N rank — so differently-shaped answers
        never alias.
        """
        predicate_key = str(predicate) if predicate is not None else ""
        if isinstance(tables, str):
            tables = (tables,)
        return (
            cache_id, tuple(tables), aggregate, column, predicate_key,
            max_width, extra,
        )

    # ------------------------------------------------------------------
    def get(
        self, key: Hashable, max_width: float, allow_degraded: bool = False
    ) -> BoundedAnswer | None:
        """A still-valid cached answer for ``key``, or ``None``.

        Valid means: younger than ``ttl`` *and* still no wider than the
        requested constraint.  A *degraded* answer is by definition wider
        than its constraint, so it can only ever be served from a lookup
        that opts in with ``allow_degraded`` — the service's cache-scoped
        degraded tier, probed while the underlying sources are known to
        be failing.  TTL and refresh-driven invalidation still apply.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._events["miss"].inc()
            return None
        answer, stored_at = entry
        if self.clock() - stored_at > self.ttl:
            self._drop(key)
            self._events["expiration"].inc()
            self._events["miss"].inc()
            return None
        if answer.degraded:
            if not allow_degraded:
                self._events["miss"].inc()
                return None
        elif not answer.meets(max_width):
            self._events["miss"].inc()
            return None
        self._entries.move_to_end(key)
        self._events["hit"].inc()
        return answer

    def put(self, key: Hashable, answer: BoundedAnswer) -> None:
        replaced = self._entries.get(key)
        if replaced is not None:
            self._release(key, replaced[0])
        self._entries[key] = (answer, self.clock())
        self._entries.move_to_end(key)
        self._held[id(answer)] = [key, None]
        for bucket in self._buckets_of(key):
            bucket.add(key)
        while len(self._entries) > self.max_entries:
            evicted, (evicted_answer, _) = self._entries.popitem(last=False)
            self._release(evicted, evicted_answer)
            for bucket in self._buckets_of(evicted):
                bucket.discard(evicted)
            self._events["eviction"].inc()
        self._g_entries.set(len(self._entries))

    def attachment(self, answer: BoundedAnswer):
        """The value attached to ``answer`` while it is held, or ``None``."""
        held = self._held.get(id(answer))
        return None if held is None else held[1]

    def attach(self, answer: BoundedAnswer, value) -> None:
        """Keep ``value`` beside ``answer`` until the answer is dropped; an
        answer not held keeps nothing."""
        held = self._held.get(id(answer))
        if held is not None:
            held[1] = value

    def _release(self, key: Hashable, answer: BoundedAnswer) -> None:
        held = self._held.get(id(answer))
        if held is not None and held[0] == key:
            del self._held[id(answer)]

    # ------------------------------------------------------------------
    def invalidate_table(
        self, table: str, scopes: "Iterable[str] | None" = None
    ) -> int:
        """Evict entries whose query read ``table`` (refresh-driven).

        A dispatched refresh revealed new master values for the table's
        tuples; answers computed before it may no longer contain the
        current truth, so they must not be served for their remaining
        TTL.  ``scopes`` limits eviction to entries stored under the
        named cache/group ids (the replicas the refresh actually
        tightened); ``None`` evicts the table's entries everywhere.
        Returns the number of entries dropped.
        """
        if scopes is None:
            buckets = [
                index_key
                for index_key in self._by_table
                if index_key[1] == table
            ]
        else:
            buckets = [(scope, table) for scope in scopes]
        dropped = 0
        for index_key in buckets:
            for key in list(self._by_table.get(index_key, ())):
                if key in self._entries:
                    # Joins index one key under several tables; drop it
                    # from every bucket so no ghost reference survives.
                    self._drop(key)
                    dropped += 1
            self._by_table.pop(index_key, None)
        self._events["invalidation"].inc(dropped)
        self._g_entries.set(len(self._entries))
        return dropped

    def _buckets_of(self, key: Hashable) -> list[set[Hashable]]:
        """Every (scope, table) bucket a :meth:`make_key` key belongs to.

        A join key references several tables and must be indexed under
        *each* of them — a refresh of any referenced table stales the
        cached answer.
        """
        scope, tables = key[0], key[1]
        return [self._by_table.setdefault((scope, name), set()) for name in tables]

    def _drop(self, key: Hashable) -> None:
        answer, _ = self._entries.pop(key)
        self._release(key, answer)
        for bucket in self._buckets_of(key):
            bucket.discard(key)
        self._g_entries.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._held.clear()
        self._by_table.clear()
        self._g_entries.set(0)

    def __len__(self) -> int:
        return len(self._entries)
