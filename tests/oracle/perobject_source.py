"""The per-object query-initiated refresh ``DataSource`` used to answer with.

Per requested object, in tuple-major order: one master-value read, one
monitor probe, the policy step, one frozen ``BoundFunction`` and one
payload; then the fan-out to the siblings as a second per-object loop
over every refreshed object's trackers.  The answer and each push carry
one single-object column per payload, so the cache applies them as it
applies any message.  The columnar ``DataSource.handle_refresh_request``
must leave trackers, policies, windows, counters and the caches' arrays
exactly as this does.
"""

from __future__ import annotations

import functools

from repro.bounds.functions import BoundFunction
from repro.replication.messages import (
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.source import DataSource


def _renew(source: DataSource, key: ObjectKey, entry, value: float, now: float):
    bound_function = BoundFunction(value, entry.policy.next_width(), now, source.shape)
    source.monitor.update(key, entry, *bound_function.encode(), bound_function.shape)
    return bound_function


def _message(source, reason, payloads, now) -> Refresh:
    columns = tuple(
        ColumnRefresh(
            key.table, key.column, (key.tid,), (value,), (function.width_parameter,)
        )
        for key, value, function in payloads
    )
    return Refresh(source.source_id, reason, columns, now, source.shape)


def handle_refresh_request_per_object(
    source: DataSource, request: RefreshRequest
) -> Refresh:
    """Answer a query-initiated refresh object by object."""
    now = source.clock()
    bounded = source.table(request.table).schema.bounded_columns
    keys = [
        ObjectKey(request.table, tid, column.name)
        for tid in request.tids
        for column in bounded
    ]
    requested = []
    for key in keys:
        value = source._master_value(key)
        entry = source.monitor.entry(request.cache_id, key)
        entry.policy.on_query_initiated()
        requested.append((key, value, _renew(source, key, entry, value, now)))
        source.query_initiated_refreshes += 1
    if source.refresh_fanout is not None:
        _fanout(source, request.cache_id, requested, now)
    return _message(source, RefreshReason.QUERY_INITIATED, requested, now)


def _fanout(source, requester, requested, now):
    membership = source.refresh_fanout
    per_cache: dict[str, list] = {}
    for key, value, _ in requested:
        for cache_id, entry in source.monitor.trackers(key).items():
            if cache_id == requester:
                continue
            if cache_id not in membership:
                continue
            entry.policy.on_query_initiated()
            function = _renew(source, key, entry, value, now)
            per_cache.setdefault(cache_id, []).append((key, value, function))
    for cache_id, payloads in per_cache.items():
        source.fanout_refreshes += len(payloads)
        source._send(cache_id, _message(source, RefreshReason.FANOUT, payloads, now))


def per_object_source(source) -> None:
    """Answer every query-initiated refresh ``source`` (each shard of a
    sharded one) receives with the reference.  An instance attribute, so
    a wrapper installed afterwards — the §8.3 ``Piggyback`` of
    ``examples/section8/prerefresh.py`` — wraps the reference."""
    for shard in getattr(source, "shards", (source,)):
        shard.handle_refresh_request = functools.partial(
            handle_refresh_request_per_object, shard
        )
