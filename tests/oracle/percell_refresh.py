"""The per-cell refresh application ``DataCache._apply_refresh`` used to be.

One ``BoundFunction.at`` — a ``Bound`` — and one ``Table.update_value``
(``Column.validate`` → ``ColumnStore.set``) per payload:
the reference both delivery routes (a ``write_cell`` per payload, a
``write_bounds`` per column) must match bit for bit.
"""

from __future__ import annotations

import contextlib

from repro.replication.cache import DataCache
from repro.replication.messages import Refresh, RefreshReason


def apply_refresh_per_cell(cache: DataCache, refresh: Refresh) -> None:
    """Install and materialize one message's payloads, cell by cell."""
    now = cache.clock()
    if refresh.reason is RefreshReason.FANOUT:
        cache.fanout_refreshes_received += len(refresh.payloads)
        if cache._t_fanout_pushes is not None:
            cache._t_fanout_pushes.inc(len(refresh.payloads))
            cache._t_fanout_lag.observe(max(0.0, now - refresh.sent_at))
    for payload in refresh.payloads:
        key = payload.key
        subscription = cache._subscriptions.get(key)
        if subscription is None:
            # Late message for an object deleted meanwhile; drop it.
            continue
        subscription.bound_function = payload.bound_function
        subscription.params.install(subscription.slot, payload.bound_function)
        table = cache.catalog.table(key.table)
        if key.tid in table:
            table.update_value(key.tid, key.column, payload.bound_function.at(now))
        cache.refreshes_received += 1


@contextlib.contextmanager
def per_cell_refresh():
    """Every ``DataCache._apply_refresh`` inside the block is the reference.

    Class-level, so messages delivered from inside the library (value-
    initiated pushes, fan-out, ``refresh_batched``) are applied by it too.
    """
    original = DataCache._apply_refresh
    DataCache._apply_refresh = apply_refresh_per_cell
    try:
        yield
    finally:
        DataCache._apply_refresh = original
