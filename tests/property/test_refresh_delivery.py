"""Property: both refresh-delivery routes ≡ the per-cell reference.

``DataCache._apply_refresh`` lands a message — per column the arrays
``(tids, V, W)``, one ``T_r`` and one shape for the whole message — in
the arrays: one ``ColumnStore.write_cell`` per object below the route
constant, one ``write_bounds`` per column from it upward, without a
``Bound``, a ``BoundFunction``, a ``Row`` or a schema check.  The loop it
replaced lives on in ``tests/oracle/percell_refresh.py``.  Two twin deployments (K replicas
in one fan-out group, two shards with different bound shapes) replay the
same schedule, one delivering through the arrays, the other cell by
cell, and after **every op** — without a sync in between — the twins
must agree bit for bit: ``_BoundColumn`` arrays and slot maps, the bound
function rebuilt for every subscribed object, ``ColumnStore`` arrays,
exactness counters, the width and endpoint orderings after repair, every
``Row`` read, and the store version must move when a cell did.

The ops deliver every kind of message: value-initiated pushes (master
writes), query-initiated batches below and above the route constant
with their fan-out to the K − 1 siblings, and hand-built messages that
name a tuple twice (in one column array or in two arrays of one column),
name tuples the master deleted (subscription gone) or the cache evicted
(subscription live, row gone), carry sqrt / linear / constant / custom
shapes — one of them with ``f(0) ≠ 0`` — and were sent before ``now``.  The route constant is lowered so eight-row tables
cross it; ``test_real_route_constant_*`` pins the shipped value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.replication.cache as cache_module
from repro.bounds.functions import (
    BoundFunction,
    ConstantShape,
    LinearShape,
    SqrtShape,
    endpoints,
)
from repro.errors import BoundError
from repro.replication.messages import (
    ColumnRefresh,
    ObjectKey,
    Refresh,
    RefreshReason,
)
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.percell_refresh import per_cell_refresh
from tests.property.test_bulk_sync import (
    BOUNDED,
    N_SHARDS,
    CubeRootShape,
    _fresh_order_contents,
    _order_contents,
    grid,
    master_tables,
)

#: The route constant the machine runs under: three tuples of the
#: two-column table are a column-route message, two are a cell loop.
LOW_FLOOR = 6


@dataclass(frozen=True, slots=True)
class OffsetShape:
    """A custom shape that is already wide at refresh time: f(0) = 1."""

    name: str = "offset"

    def __call__(self, elapsed: float) -> float:
        return 1.0 + max(0.0, elapsed)


SOURCE_SHAPES = (SqrtShape(), LinearShape(), ConstantShape(), CubeRootShape())
MESSAGE_SHAPES = SOURCE_SHAPES + (OffsetShape(),)


@pytest.fixture(autouse=True)
def low_route_constant(monkeypatch):
    monkeypatch.setattr(cache_module, "_COLUMN_ROUTE_PAYLOADS", LOW_FLOOR)


@st.composite
def schedules(draw):
    """4–14 ops as plain tuples; indices reduce modulo the live state."""
    index = st.integers(min_value=0, max_value=11)
    width = st.sampled_from((0.0, 0.125, 1.0, 3.5))
    age = st.sampled_from((0.0, 0.0, 0.5, 4.0))
    entry = st.tuples(index, st.sampled_from(BOUNDED), grid, width)
    op = st.one_of(
        st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0, 7.0))),
        st.tuples(st.just("write"), index, st.sampled_from(BOUNDED), grid),
        st.tuples(st.just("refresh"), index, st.lists(index, min_size=1, max_size=6)),
        st.tuples(
            st.just("message"), index,
            st.sampled_from(tuple(RefreshReason)),
            st.lists(entry, min_size=1, max_size=12),
            st.integers(0, len(MESSAGE_SHAPES) - 1), age,
        ),
        st.tuples(st.just("insert"), grid, grid),
        st.tuples(st.just("delete"), index),
        st.tuples(st.just("evict"), index, index),
    )
    return draw(st.lists(op, min_size=4, max_size=14))


def _build(master: Table, shapes, replicas: int, age: float) -> TrappSystem:
    system = TrappSystem()
    source = system.add_source("s", shards=N_SHARDS)
    for shard, shape in zip(source.shards, shapes):
        shard.shape = shape
    source.add_table(master.copy())
    system.add_group("g")
    for index in range(replicas):
        system.add_cache(f"g/{index}", shards={"t": "s"}, group="g")
    system.clock.advance(age)
    for cache in system.group("g"):
        cache.sync_bounds()
    return system


def _versions(system: TrappSystem) -> dict[str, int]:
    return {
        cache.cache_id: cache.table("t").columns.version
        for cache in system.group("g")
    }


def _raw_cells(system: TrappSystem) -> dict[str, bytes]:
    out = {}
    for cache in system.group("g"):
        store = cache.table("t").columns
        out[cache.cache_id] = b"".join(
            array[column][: len(store)].tobytes()
            for column in BOUNDED
            for array in (store._lo, store._hi)
        )
    return out


def _assert_twins_agree(ours: TrappSystem, theirs: TrappSystem, context: str):
    members = sorted(ours.group("g").cache_ids())
    for cache_id in members:
        new, old = ours.cache(cache_id), theirs.cache(cache_id)
        where = f"{cache_id} at {context}"
        assert new.refreshes_received == old.refreshes_received, where
        assert new.fanout_refreshes_received == old.fanout_refreshes_received, where
        # The bound functions: per object and as parallel arrays.
        keys = new.subscribed_keys()
        assert keys == old.subscribed_keys(), where
        for key in keys:
            assert new.bound_function_of(key) == old.bound_function_of(key), (
                where, key,
            )
        assert new._bound_columns.keys() == old._bound_columns.keys(), where
        for name, params in new._bound_columns.items():
            twin = old._bound_columns[name]
            assert params.n == twin.n, (where, name)
            assert params.slot_of == twin.slot_of, (where, name)
            assert params.custom == twin.custom, (where, name)
            for mine, yours in zip(params.parameters(), twin.parameters()):
                assert mine.tobytes() == yours.tobytes(), (where, name)
        # The cells: raw arrays, counters, memoized snapshots, orderings.
        a, b = new.table("t"), old.table("t")
        assert a.tids() == b.tids(), where
        n = len(a.columns)
        assert a.columns._tids[:n].tobytes() == b.columns._tids[:n].tobytes(), where
        by_tid = np.argsort(a.columns._tids[:n], kind="stable")
        for column in BOUNDED:
            for side in ("_lo", "_hi"):
                mine = getattr(a.columns, side)[column][:n]
                yours = getattr(b.columns, side)[column][:n]
                assert mine.tobytes() == yours.tobytes(), (where, column, side)
            lo, hi = a.columns.endpoints(column)
            assert lo.tobytes() == a.columns._lo[column][:n][by_tid].tobytes(), where
            assert hi.tobytes() == a.columns._hi[column][:n][by_tid].tobytes(), where
            assert a.columns.non_exact_count(column) == int(
                np.count_nonzero(lo < hi)
            ), (where, column)
            assert a.columns.non_exact_count(column) == b.columns.non_exact_count(
                column
            ), (where, column)
            assert a.columns.column_exact(column) == b.columns.column_exact(column)
            contents = _order_contents(a.columns, column)
            assert contents == _order_contents(b.columns, column), (where, column)
            assert contents == _fresh_order_contents(a.columns, column), (
                where, column,
            )
        # Every row read: same value, same type, and what the arrays hold.
        for row_a, row_b in zip(a.rows(), b.rows()):
            assert row_a == row_b, where
            slot = a.columns._slot_of[row_a.tid]
            for column in BOUNDED:
                assert type(row_a[column]) is type(row_b[column]), where
                bound = row_a.bound(column)
                assert bound.lo == a.columns._lo[column][slot], where
                assert bound.hi == a.columns._hi[column][slot], where


def _columns(entries) -> tuple[ColumnRefresh, ...]:
    """``(tid, column, V, W)`` entries as one column array per run of
    entries naming the same column: arrays as a source's answer carries
    them, one-element tuples as a push does."""
    runs: list[list] = []
    for entry in entries:
        if runs and runs[-1][0][1] == entry[1]:
            runs[-1].append(entry)
        else:
            runs.append([entry])
    built = []
    for run in runs:
        tids = tuple(tid for tid, _, _, _ in run)
        values = [value for _, _, value, _ in run]
        widths = [width for _, _, _, width in run]
        if len(run) == 1:
            values, widths = tuple(values), tuple(widths)
        else:
            values, widths = np.array(values), np.array(widths)
        built.append(ColumnRefresh("t", run[0][1], tids, values, widths))
    return tuple(built)


def _message(system, op, tids_ever):
    """The hand-built message of a ``message`` op, for one twin."""
    _, _, reason, entries, shape, age = op
    now = system.clock.now()
    columns = _columns(
        (tids_ever[index % len(tids_ever)], column, value, width)
        for index, column, value, width in entries
    )
    return Refresh("s/0", reason, columns, now - age, MESSAGE_SHAPES[shape])


@settings(max_examples=150, deadline=None)
@given(
    master=master_tables(),
    shapes=st.tuples(st.sampled_from(SOURCE_SHAPES), st.sampled_from(SOURCE_SHAPES)),
    replicas=st.integers(min_value=1, max_value=3),
    schedule=schedules(),
    age=st.sampled_from((0.0, 3.0, 48.0)),
)
def test_delivery_matches_per_cell_reference(master, shapes, replicas, schedule, age):
    ours = _build(master, shapes, replicas, age)
    theirs = _build(master, shapes, replicas, age)
    _assert_twins_agree(ours, theirs, "start")
    tids_ever = master.tids()

    def on_both(action):
        action(ours)
        with per_cell_refresh():
            action(theirs)

    for step, op in enumerate(schedule):
        kind = op[0]
        context = f"step {step} {op} of {schedule}"
        live = ours.source("s").partitions("t")
        tids = sorted(tid for _, part in live for tid in part.tids())
        members = sorted(ours.group("g").cache_ids())
        versions = _versions(ours), _versions(theirs)
        cells = _raw_cells(ours)
        column_messages = sum(c.column_route_messages for c in ours.group("g"))
        if kind == "advance":
            on_both(lambda system: system.clock.advance(op[1]))
            on_both(
                lambda system: [cache.sync_bounds() for cache in system.group("g")]
            )
        elif kind == "write" and tids:
            key = ObjectKey("t", tids[op[1] % len(tids)], op[2])
            on_both(lambda system: system.source("s").apply_update(key, op[3]))
        elif kind == "refresh" and tids:
            # Evicted tuples stay in: their subscriptions are live, so the
            # reply names cells the cached table no longer holds.
            member = members[op[1] % len(members)]
            wanted = sorted({tids[i % len(tids)] for i in op[2]})
            on_both(
                lambda system: system.cache(member).refresh(
                    system.cache(member).table("t"), wanted
                )
            )
        elif kind == "message":
            member = members[op[1] % len(members)]
            on_both(
                lambda system: system.cache(member)._on_message(
                    member, _message(system, op, tids_ever)
                )
            )
        elif kind == "insert":
            values = {"x": op[1], "y": op[2], "g": 0.0}
            on_both(lambda system: system.source("s").insert_row("t", dict(values)))
            partitions = ours.source("s").partitions("t")
            new_tid = max(tid for _, part in partitions for tid in part.tids())
            if new_tid not in tids_ever:
                tids_ever = tids_ever + [new_tid]
        elif kind == "delete" and len(tids) > 1:
            tid = tids[op[1] % len(tids)]
            on_both(lambda system: system.source("s").delete_row("t", tid))
        elif kind == "evict" and tids:
            member = members[op[1] % len(members)]
            tid = tids[op[2] % len(tids)]
            if tid in ours.cache(member).table("t"):
                on_both(lambda system: system.cache(member).table("t").delete(tid))
        _assert_twins_agree(ours, theirs, context)
        # Version parity of change: a cell that moved moved the version,
        # and the version never moves where the reference's stood still.
        after = _versions(ours), _versions(theirs)
        now_cells = _raw_cells(ours)
        by_cell_only = column_messages == sum(
            c.column_route_messages for c in ours.group("g")
        )
        for cache_id in members:
            moved = after[0][cache_id] != versions[0][cache_id]
            reference_moved = after[1][cache_id] != versions[1][cache_id]
            if now_cells[cache_id] != cells[cache_id]:
                assert moved, context
            if moved:
                assert reference_moved, context
            if by_cell_only and kind != "advance":
                assert moved == reference_moved, context


# ----------------------------------------------------------------------
# Fixed cases the random schedules reach only by luck.
# ----------------------------------------------------------------------
def _flat_master(n: int) -> Table:
    table = Table("t", Schema.of(x="bounded", y="bounded", g="exact"))
    for index in range(n):
        table.insert({"x": float(index), "y": -float(index), "g": 0.0})
    return table


@pytest.mark.parametrize("replicas", [1, 2, 3])
@pytest.mark.parametrize("n_payloads", [1, LOW_FLOOR - 1, LOW_FLOOR, 16])
def test_a_key_named_twice_keeps_its_last_payload(replicas, n_payloads):
    """On either side of the route constant, and against the reference:
    named twice in one column array (up to 8 entries) or in two arrays of
    the same column (16)."""
    ours = _build(_flat_master(8), SOURCE_SHAPES[:2], replicas, 5.0)
    theirs = _build(_flat_master(8), SOURCE_SHAPES[:2], replicas, 5.0)
    now = ours.clock.now()
    entries = [
        (1 + index % 8, BOUNDED[(index // 8) % 2], 10.0 + index, 0.5)
        for index in range(n_payloads)
    ]
    tid, column = entries[0][:2]
    entries[0] = (tid, column, -50.0, 2.0)
    entries.append((tid, column, 99.0, 0.25))
    message = Refresh(
        "s/0", RefreshReason.QUERY_INITIATED, _columns(entries), now - 1.0,
        CubeRootShape(),
    )
    ours.cache("g/0")._on_message("g/0", message)
    with per_cell_refresh():
        theirs.cache("g/0")._on_message("g/0", message)
    _assert_twins_agree(ours, theirs, f"{n_payloads} payloads")
    cache = ours.cache("g/0")
    last = BoundFunction(99.0, 0.25, now - 1.0, CubeRootShape())
    assert cache.bound_function_of(ObjectKey("t", tid, column)) == last
    assert cache.table("t").columns.cell(tid, column) == last.endpoints_at(now)
    route = "column" if len(entries) >= LOW_FLOOR else "cell"
    assert (cache.cell_route_messages, cache.column_route_messages) == (
        (0, 1) if route == "column" else (1, 0)
    )


@pytest.mark.parametrize("n_payloads", [2, 16])
def test_both_routes_raise_what_the_reference_raises(n_payloads):
    """A message refreshed after ``now``, and one object whose endpoints
    are NaN."""
    for late, bad in ((5.0, (1.0, 1.0)), (-1.0, (float("inf"), float("inf")))):
        ours = _build(_flat_master(8), SOURCE_SHAPES[:2], 1, 5.0)
        theirs = _build(_flat_master(8), SOURCE_SHAPES[:2], 1, 5.0)
        now = ours.clock.now()
        entries = [
            (1 + index % 8, BOUNDED[index // 8], 1.0, 0.5)
            for index in range(n_payloads - 1)
        ]
        entries.append((8, "y", *bad))
        message = Refresh(
            "s/0", RefreshReason.VALUE_INITIATED, _columns(entries), now + late,
            SqrtShape(),
        )
        with pytest.raises(BoundError) as new_error:
            ours.cache("g/0")._on_message("g/0", message)
        with per_cell_refresh(), pytest.raises(BoundError) as old_error:
            theirs.cache("g/0")._on_message("g/0", message)
        assert str(new_error.value) == str(old_error.value)
        with pytest.raises(BoundError) as formula_error:
            endpoints(*bad, now + late, SqrtShape(), now)
        assert str(new_error.value) == str(formula_error.value)


@pytest.mark.parametrize("n_payloads", [1, 2, 16])
def test_an_object_the_formula_rejects_is_installed_nowhere(n_payloads):
    """Its bound function and cell stay as they were, so the next sync
    does not inherit the bad parameters (the cell route once installed
    them before evaluating, and every later sync of the column raised)."""
    system = _build(_flat_master(8), SOURCE_SHAPES[:2], 1, 5.0)
    cache = system.cache("g/0")
    now = system.clock.now()
    key = ObjectKey("t", 8, "y")
    before = cache.bound_function_of(key), cache.table("t").columns.cell(8, "y")
    entries = [
        (1 + index % 7, BOUNDED[index % 2], 1.0, 0.5)
        for index in range(n_payloads - 1)
    ]
    entries.append((8, "y", float("nan"), 1.0))
    message = Refresh(
        "s/0", RefreshReason.VALUE_INITIATED, _columns(entries), now, SqrtShape()
    )
    with pytest.raises(BoundError, match="NaN"):
        cache._on_message("g/0", message)
    assert (cache.bound_function_of(key), cache.table("t").columns.cell(8, "y")) == before
    cache.sync_bounds()


def test_real_route_constant_splits_query_initiated_batches(monkeypatch):
    """At the shipped constant: a batch just below it is a cell loop, one
    at it a column write, both equal to the reference."""
    monkeypatch.undo()  # the shipped constant, not the machine's
    floor = cache_module._COLUMN_ROUTE_PAYLOADS
    below, at = (floor - 1) // 2, -(-floor // 2)  # tuples of two columns
    n = 2 * at + 2  # round-robin placement: each shard holds at least ``at``
    ours = _build(_flat_master(n), SOURCE_SHAPES[:1] * 2, 2, 9.0)
    theirs = _build(_flat_master(n), SOURCE_SHAPES[:1] * 2, 2, 9.0)
    source = ours.source("s")
    shard_tids = sorted(source.partitions("t")[0][1].tids())
    assert len(shard_tids) >= at  # one shard, so one message per refresh

    def refresh(system, tids):
        cache = system.cache("g/0")
        cache.refresh(cache.table("t"), tids)

    requester, sibling = ours.cache("g/0"), ours.cache("g/1")
    for tids, expected in ((shard_tids[:below], (1, 0)), (shard_tids[:at], (1, 1))):
        refresh(ours, tids)
        with per_cell_refresh():
            refresh(theirs, tids)
        _assert_twins_agree(ours, theirs, f"{len(tids)} tuples")
        for cache in (requester, sibling):  # the reply and its fan-out
            assert (cache.cell_route_messages, cache.column_route_messages) == expected
