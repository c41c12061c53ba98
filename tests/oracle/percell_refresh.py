"""The per-cell refresh application ``DataCache._apply_refresh`` used to be.

One ``BoundFunction`` per object, one ``BoundFunction.at`` — a ``Bound``
— and one ``Table.update_value`` (``Column.validate`` →
``ColumnStore.set``) per cell: the reference both delivery routes (a
``write_cell`` per object, a ``write_bounds`` per column) must match bit
for bit.
"""

from __future__ import annotations

import contextlib

import repro.replication.cache as cache_module
from repro.bounds.functions import BoundFunction
from repro.replication.cache import DataCache
from repro.replication.messages import Refresh, RefreshReason


def apply_refresh_per_cell(cache: DataCache, refresh: Refresh) -> None:
    """Install and materialize one message's objects, cell by cell."""
    now = cache.clock()
    if refresh.reason is RefreshReason.FANOUT:
        n_objects = sum(len(column.tids) for column in refresh.columns)
        cache.fanout_refreshes_received += n_objects
        if cache._t_fanout_pushes is not None:
            cache._t_fanout_pushes.inc(n_objects)
            cache._t_fanout_lag.observe(max(0.0, now - refresh.refreshed_at))
    for table_name, column, tids, values, widths in refresh.columns:
        params = cache._bound_columns.get((table_name, column))
        for tid, value, width in zip(tids, values, widths):
            slot = None if params is None else params.slot_of.get(tid)
            if slot is None:
                # Late message for an object deleted meanwhile; drop it.
                continue
            function = BoundFunction(
                float(value), float(width), refresh.refreshed_at, refresh.shape
            )
            params.install(
                slot, tid, *function.encode(), function.shape,
                cache_module._SHAPE_CODES.get(
                    type(function.shape), cache_module._CUSTOM_SHAPE
                ),
            )
            table = cache.catalog.table(table_name)
            if tid in table:
                table.update_value(tid, column, function.at(now))
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
