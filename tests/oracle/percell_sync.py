"""The per-cell bound sync ``DataCache.sync_bounds`` used to be.

One ``BoundFunction.at`` and one ``Table.update_value`` per subscription:
the reference the column-at-a-time sweep must match bit for bit.  Also
the per-key reference of ``DataCache.current_table_width``.
"""

from __future__ import annotations

import contextlib
import math

from repro.replication.cache import DataCache


def sync_bounds_per_cell(cache: DataCache) -> None:
    """Re-evaluate every cached bound at the current time, cell by cell."""
    now = cache.clock()
    for key, subscription in cache._subscriptions.items():
        table = cache.catalog.table(key.table)
        if key.tid not in table:
            continue
        evaluated = subscription.bound_function.at(now)
        if table.row(key.tid).bound(key.column) != evaluated:
            table.update_value(key.tid, key.column, evaluated)


def table_width_per_key(cache: DataCache, table_name: str, now: float) -> float:
    """Total bound width of one table's subscriptions, key by key."""
    return math.fsum(
        2.0 * cache._subscriptions[key].bound_function.half_width_at(now)
        for key in cache._keys_by_table.get(table_name, ())
    )


@contextlib.contextmanager
def per_cell_sync():
    """Every ``DataCache.sync_bounds`` inside the block is the reference.

    Class-level, so syncs issued from inside the library (snapshot
    admission, ``TrappSystem.query``) are replaced too.
    """
    original = DataCache.sync_bounds
    DataCache.sync_bounds = sync_bounds_per_cell
    try:
        yield
    finally:
        DataCache.sync_bounds = original
