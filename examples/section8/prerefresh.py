"""Refresh piggybacking and pre-refreshing (paper §8.3).

Two cost-amortization tactics the paper proposes:

* **Piggybacking** — when a source answers a (value- or query-initiated)
  refresh anyway, it may attach extra refreshes for objects "likely to
  need refreshing in the near future, e.g. if the precise value is very
  close to the edge of its bound."
* **Pre-refreshing** — during idle periods the source proactively
  refreshes the riskiest objects so later peak-load refreshes are avoided.

Both need the same primitive: a *risk score* for each tracked object — how
close its master value sits to its cached bound's edge, normalized by the
bound's width.  :func:`edge_risk` provides it; :class:`PiggybackPolicy`
selects the extra payload for a refresh response; :class:`Piggyback`
puts a policy on a source's query-initiated answers;
:func:`pre_refresh_candidates` ranks objects for an idle-time sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.bound import Bound
from repro.errors import TrappError
from repro.replication.messages import (
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.source import DataSource

__all__ = ["edge_risk", "PiggybackPolicy", "Piggyback", "pre_refresh_candidates"]


def edge_risk(value: float, bound: Bound) -> float:
    """How endangered a cached bound is, in [0, 1].

    0 means the master value sits at the bound's center; 1 means it sits
    on (or outside) an edge.  Zero-width bounds are at maximal risk: any
    update escapes them.
    """
    if not bound.contains(value):
        return 1.0
    if bound.width == 0:
        return 1.0
    center_distance = abs(value - bound.midpoint)
    return min(1.0, 2.0 * center_distance / bound.width)


@dataclass(frozen=True, slots=True)
class PiggybackPolicy:
    """Selects extra objects to refresh alongside a requested one.

    ``risk_threshold`` — only objects at least this endangered ride along;
    ``max_extra`` — cap on piggybacked objects per response (each one adds
    marginal transfer cost, so unbounded piggybacking would re-create the
    eager-replication regime the paper is escaping).
    """

    risk_threshold: float = 0.8
    max_extra: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.risk_threshold <= 1.0:
            raise TrappError(
                f"risk threshold must lie in [0, 1], got {self.risk_threshold}"
            )
        if self.max_extra < 0:
            raise TrappError(f"max_extra must be non-negative, got {self.max_extra}")

    def select(
        self,
        requested: set,
        tracked: Iterable[tuple[object, float, Bound]],
    ) -> list:
        """Choose piggyback keys.

        ``tracked`` yields ``(key, master_value, cached_bound)`` for every
        object the source tracks for the requesting cache; ``requested``
        are the keys already being refreshed.  Returns up to ``max_extra``
        additional keys, most endangered first.
        """
        scored = [
            (edge_risk(value, bound), key)
            for key, value, bound in tracked
            if key not in requested
        ]
        risky = sorted(
            (item for item in scored if item[0] >= self.risk_threshold),
            key=lambda item: (-item[0], repr(item[1])),
        )
        return [key for _, key in risky[: self.max_extra]]


class Piggyback:
    """A policy's extra refreshes, ridden on a source's answers.

    :meth:`install` replaces ``handle_refresh_request`` on a
    :class:`DataSource` instance (on each shard of a
    :class:`~repro.replication.sharding.ShardedSource`).  The source
    answers as it always does, then the policy picks endangered objects
    the requesting cache tracks, and each one is renewed at its current
    master value.  A piggybacked refresh is opportunistic, not a
    precision signal, so no width policy hears of it: every tracker is
    renewed at its policy's next width.  The piggybacked columns join
    the answer.  With the source's fan-out on, every sibling tracking an
    object is renewed the same way and sent those columns as a second
    push, so replicas stay in lockstep.  ``refreshes`` counts the
    requester's piggybacked objects.
    """

    def __init__(self, policy: PiggybackPolicy) -> None:
        self.policy = policy
        self.refreshes = 0

    def install(self, source) -> "Piggyback":
        """Wrap ``source`` (or each of its shards); returns ``self``."""
        for shard in getattr(source, "shards", (source,)):
            self._wrap(shard)
        return self

    def _wrap(self, source: DataSource) -> None:
        answer = source.handle_refresh_request

        def handle_refresh_request(request: RefreshRequest) -> Refresh:
            reply = answer(request)
            extra = self._ride_along(source, request, reply.refreshed_at)
            if not extra:
                return reply
            return reply._replace(columns=reply.columns + extra)

        source.handle_refresh_request = handle_refresh_request

    def _ride_along(
        self, source: DataSource, request: RefreshRequest, now: float
    ) -> tuple[ColumnRefresh, ...]:
        cache_id, monitor = request.cache_id, source.monitor
        bounded = source.table(request.table).schema.bounded_columns
        requested = {
            ObjectKey(request.table, tid, column.name)
            for tid in request.tids
            for column in bounded
        }
        tracked = []
        for name in source.table_names():
            table = source.table(name)
            for column in table.schema.bounded_columns:
                for tid in table.tids():
                    key = ObjectKey(name, tid, column.name)
                    entry = monitor.trackers(key).get(cache_id)
                    if entry is not None and key not in requested:
                        tracked.append((key, _master(source, key), entry.at(now)))
        fanout = source.refresh_fanout
        # Per receiving cache, per (table, column): tids, values, widths.
        renewed: dict[str, dict[tuple[str, str], tuple[list, list, list]]] = {}
        for key in self.policy.select(requested, tracked):
            value = _master(source, key)
            for member, entry in monitor.trackers(key).items():
                if member != cache_id and (fanout is None or member not in fanout):
                    continue
                width = entry.policy.next_width()
                monitor.update(key, entry, value, width, now, source.shape)
                column = renewed.setdefault(member, {}).setdefault(
                    (key.table, key.column), ([], [], [])
                )
                for field, item in zip(column, (key.tid, value, width)):
                    field.append(item)
        own = _columns(renewed.pop(cache_id, {}))
        self.refreshes += sum(len(column.tids) for column in own)
        for member, columns in renewed.items():
            pushed = _columns(columns)
            source.fanout_refreshes += sum(len(column.tids) for column in pushed)
            source._send(
                member,
                Refresh(
                    source.source_id, RefreshReason.FANOUT, pushed, now, source.shape
                ),
            )
        return own


def _master(source: DataSource, key: ObjectKey) -> float:
    return source.table(key.table).columns.cell(key.tid, key.column)[0]


def _columns(
    renewed: dict[tuple[str, str], tuple[list, list, list]]
) -> tuple[ColumnRefresh, ...]:
    return tuple(
        ColumnRefresh(table, column, tuple(tids), np.array(values), np.array(widths))
        for (table, column), (tids, values, widths) in renewed.items()
    )


def pre_refresh_candidates(
    tracked: Iterable[tuple[object, float, Bound]],
    budget: int,
    risk_threshold: float = 0.5,
) -> list:
    """Rank objects for an idle-time pre-refresh sweep.

    Returns up to ``budget`` keys whose risk meets the threshold, most
    endangered first — the objects most likely to cost a value-initiated
    refresh soon.
    """
    if budget < 0:
        raise TrappError(f"budget must be non-negative, got {budget}")
    scored = sorted(
        (
            (edge_risk(value, bound), key)
            for key, value, bound in tracked
            if edge_risk(value, bound) >= risk_threshold
        ),
        key=lambda item: (-item[0], repr(item[1])),
    )
    return [key for _, key in scored[:budget]]
