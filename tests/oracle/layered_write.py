"""The master write path as four layers that each check again.

Before the write path checked once, one ``ShardedSource.apply_update``
went through ``shard_for``; ``DataSource.apply_update`` coerced with
``float`` and ``isfinite`` and looked the table up with ``table()``;
``Table.update_value`` ran ``Schema.__getitem__`` + ``Column.validate``
and a membership test; ``ColumnStore.set`` looked the slot up again and
probed every per-column dict; and ``RefreshMonitor.violations`` was
called for its window probe.  A value-initiated push landed through a
cell route that set up its column loop for one object.  Those bodies are
kept here, verbatim in behaviour, as the reference the one-check route
must match: the same exception type with nothing moved, or the same
arrays, counters, orders, monitor tallies, refreshes and cache cells.
Both routes refuse a write to a column that is not bounded (no cache
tracks it, so the change would reach none; an EXACT value changes by
delete + insert), and both check the monitor before the cell moves, so a
check that raises leaves the master as it was.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

import repro.replication.cache as cache_module
from repro.bounds.functions import endpoints
from repro.errors import SchemaError, TrappError, UnknownColumnError
from repro.replication.cache import DataCache
from repro.replication.messages import (
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
)
from repro.replication.sharding import ShardedSource
from repro.replication.source import DataSource, RefreshMonitor
from repro.storage.columnar import ColumnStore, _endpoints
from repro.storage.table import Table


def sharded_apply_update(sharded: ShardedSource, key: ObjectKey, new_value):
    return sharded.shard_for(key.table, key.tid).apply_update(key, new_value)


def apply_update(source: DataSource, key: ObjectKey, new_value) -> list[Refresh]:
    try:
        value = float(new_value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"master value of {key} must be a float64 number, got {new_value!r}"
        ) from None
    if not math.isfinite(value):
        raise SchemaError(f"master value of {key} must be finite, got {value}")
    table = source.table(key.table)
    if not table.schema[key.column].is_bounded:
        raise SchemaError(f"master object {key} is not bounded")
    now = source.clock()
    violated = violations(source.monitor, key, value, now)
    table.update_value(key.tid, key.column, value)
    refreshes: list[Refresh] = []
    for cache_id, entry in violated:
        entry.policy.on_value_initiated()
        width = entry.policy.next_width()
        source.monitor.update(key, entry, value, width, now, source.shape)
        refresh = Refresh(
            source.source_id,
            RefreshReason.VALUE_INITIATED,
            (ColumnRefresh(key.table, key.column, (key.tid,), (value,), (width,)),),
            now,
            source.shape,
        )
        source.value_initiated_refreshes += 1
        source._send(cache_id, refresh)
        refreshes.append(refresh)
    return refreshes


def violations(monitor: RefreshMonitor, key: ObjectKey, value: float, now: float):
    window = monitor._windows.get(key)
    if window is not None:
        lo, hi, checked_at = window
        if checked_at <= now and lo <= value <= hi:
            monitor.window_answers += 1
            return []
    trackers = monitor._objects.get(key)
    if trackers is None:
        return []
    out = []
    lo, hi = -math.inf, math.inf
    for cache_id, entry in trackers.items():
        bound_lo, bound_hi = endpoints(
            entry.value_at_refresh, entry.width_parameter,
            entry.refreshed_at, entry.shape, now,
        )
        if not bound_lo <= value <= bound_hi:
            out.append((cache_id, entry))
        else:
            if bound_lo > lo:
                lo = bound_lo
            if bound_hi < hi:
                hi = bound_hi
    monitor.full_checks += 1
    if out:
        monitor._violation_counts[key.table] = (
            monitor._violation_counts.get(key.table, 0) + len(out)
        )
    else:
        monitor._windows[key] = (lo, hi, now)
    return out


def update_value(table: Table, tid: int, column: str, value) -> None:
    table.schema[column].validate(value)
    if tid not in table.columns:
        raise TrappError(f"table {table.name!r} has no tuple #{tid}")
    table.columns.set(tid, column, value)


def set_cell(store: ColumnStore, tid: int, column: str, value) -> None:
    try:
        slot = store._slot_of[tid]
    except KeyError:
        raise TrappError(f"column store holds no tuple #{tid}") from None
    objects = store._objects.get(column)
    if objects is not None:
        objects[slot] = value
    if column in store._lo:
        if type(value) is float:
            lo = hi = value
        else:
            lo, hi = _endpoints(value)
        wide = lo < hi
        if column in store._bounded and (wide or store._non_exact[column]):
            was_wide = bool(store._lo[column][slot] < store._hi[column][slot])
            store._non_exact[column] += int(wide) - int(was_wide)
        store._lo[column][slot] = lo
        store._hi[column][slot] = hi
        for order in store._column_orders.get(column, ()):
            order.dirty.add(tid)
    elif objects is None:
        raise UnknownColumnError(column)
    store.version += 1


def write_cell(store: ColumnStore, tid: int, column: str, lo: float, hi: float) -> bool:
    slot = store._slot_of.get(tid)
    if slot is None:
        return False
    if column not in store._bounded:
        store.schema[column]
        raise TrappError(f"column {column!r} is not bounded; no cell write")
    live_lo, live_hi = store._lo[column], store._hi[column]
    wide = lo < hi
    if wide or store._non_exact[column]:
        was_wide = bool(live_lo[slot] < live_hi[slot])
        store._non_exact[column] += int(wide) - int(was_wide)
    live_lo[slot] = lo
    live_hi[slot] = hi
    for order in store._column_orders.get(column, ()):
        order.dirty.add(tid)
    store.version += 1
    return True


def apply_refresh(cache: DataCache, refresh: Refresh) -> None:
    now = cache.clock()
    columns = refresh.columns
    n_objects = sum([len(column.tids) for column in columns])
    if refresh.reason is RefreshReason.FANOUT:
        cache.fanout_refreshes_received += n_objects
        if cache._t_fanout_pushes is not None:
            cache._t_fanout_pushes.inc(n_objects)
            cache._t_fanout_lag.observe(max(0.0, now - refresh.refreshed_at))
    if n_objects >= cache_module._COLUMN_ROUTE_PAYLOADS:
        cache._apply_refresh_columns(refresh, now)
        return
    cache.cell_route_messages += 1
    refreshed_at, shape = refresh.refreshed_at, refresh.shape
    code = cache_module._SHAPE_CODES.get(type(shape), cache_module._CUSTOM_SHAPE)
    for table_name, column, tids, values, widths in columns:
        params = cache._bound_columns.get((table_name, column))
        if params is None:
            continue
        store = cache.catalog.table(table_name).columns
        slot_of = params.slot_of
        if isinstance(values, np.ndarray):
            values, widths = values.tolist(), widths.tolist()
        for tid, value, width in zip(tids, values, widths):
            slot = slot_of.get(tid)
            if slot is None:
                continue
            params.install(slot, tid, value, width, refreshed_at, shape, code)
            lo, hi = endpoints(value, width, refreshed_at, shape, now)
            store.write_cell(tid, column, lo, hi)
            cache.refreshes_received += 1


_LAYERS = (
    (ShardedSource, "apply_update", sharded_apply_update),
    (DataSource, "apply_update", apply_update),
    (Table, "update_value", update_value),
    (ColumnStore, "set", set_cell),
    (ColumnStore, "write_cell", write_cell),
    (DataCache, "_apply_refresh", apply_refresh),
)


@contextlib.contextmanager
def layered_write():
    """Every master write and push delivery inside the block is the
    reference.  Class-level, so pushes sent from inside the library land
    through it too."""
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in _LAYERS]
    for owner, name, function in _LAYERS:
        setattr(owner, name, function)
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
