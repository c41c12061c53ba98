"""Property: the columnar query-initiated refresh ≡ the per-object reference.

``DataSource.handle_refresh_request`` reads each bounded column's master
values with one gather, steps every object's width policy, renews the
monitor's trackers in place and answers with per-column arrays
``(tids, V, W)`` under one ``T_r``, which the fan-out to sibling replicas
reuses.  The per-object loop it replaced — one ``BoundFunction`` and one
payload per object, the fan-out a second loop — lives on in
``tests/oracle/perobject_source.py``.

Two twin deployments (K replicas in one fan-out group plus, sometimes, a
standalone cache outside it; two shards with their own bound shapes; one
width policy kind; the §8.3 ``Piggyback`` of
``examples/section8/prerefresh.py`` wrapped round both or neither)
replay one schedule of query-initiated refreshes, master writes and
clock steps — one answering by columns, the other object by object —
and after **every op** they must agree bit for bit on every tracker's
``(V, W, T_r)``, shape and policy state, the safe windows, the monitor,
source and piggyback counters, and every cache's ``_BoundColumn`` and
``ColumnStore`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from examples.section8.prerefresh import Piggyback, PiggybackPolicy
from repro.bounds.width import AdaptiveWidthController, FixedWidthPolicy
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.perobject_source import per_object_source
from tests.property.test_bulk_sync import (
    BOUNDED,
    SHAPES,
    grid,
    master_tables,
)


@dataclass
class CyclingPolicy:
    """A custom width policy: its width walks a fixed cycle, two steps per
    value-initiated refresh and one per query-initiated one."""

    widths: tuple[float, ...] = (0.5, 2.0, 0.125, 1.0)
    step: int = 0

    def next_width(self) -> float:
        return self.widths[self.step % len(self.widths)]

    def on_value_initiated(self) -> None:
        self.step += 2

    def on_query_initiated(self) -> None:
        self.step += 1


POLICIES = {
    "adaptive": lambda: AdaptiveWidthController(initial_width=0.5, shrink=0.5),
    "fixed": lambda: FixedWidthPolicy(0.75),
    "cycling": CyclingPolicy,
}


@st.composite
def schedules(draw):
    """4–14 ops as plain tuples; indices reduce modulo the live state."""
    index = st.integers(min_value=0, max_value=11)
    op = st.one_of(
        st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0, 7.0))),
        st.tuples(st.just("write"), index, st.sampled_from(BOUNDED), grid),
        st.tuples(st.just("refresh"), index, st.lists(index, min_size=1, max_size=8)),
    )
    return draw(st.lists(op, min_size=4, max_size=14))


def _build(
    master, shapes, policy, piggyback, replicas, solo, age, reference=False
) -> TrappSystem:
    """One twin; ``reference`` answers object by object.  With
    ``piggyback`` its ``Piggyback`` tally is ``system.piggyback``."""
    system = TrappSystem()
    source = system.add_source("s", shards=2, default_policy_factory=POLICIES[policy])
    if reference:
        per_object_source(source)
    system.piggyback = (
        Piggyback(PiggybackPolicy(risk_threshold=0.25, max_extra=3)).install(source)
        if piggyback
        else None
    )
    for shard, shape in zip(source.shards, shapes):
        shard.shape = shape
    source.add_table(master.copy())
    system.add_group("g")
    for index in range(replicas):
        system.add_cache(f"g/{index}", shards={"t": "s"}, group="g")
    if solo:  # shares the sources, outside the group: never pushed to
        system.add_cache("solo", shards={"t": "s"})
    system.clock.advance(age)
    for cache in _caches(system):
        cache.sync_bounds()
    return system


def _caches(system: TrappSystem):
    return [system.cache(cache_id) for cache_id in sorted(system._caches)]


def _bits(*values: float) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _assert_twins_agree(ours: TrappSystem, theirs: TrappSystem, where: str) -> None:
    if ours.piggyback is not None:
        assert ours.piggyback.refreshes == theirs.piggyback.refreshes, where
    for mine, yours in zip(ours.source("s").shards, theirs.source("s").shards):
        at = f"{mine.source_id} at {where}"
        for counter in (
            "query_initiated_refreshes", "fanout_refreshes",
            "value_initiated_refreshes",
        ):
            assert getattr(mine, counter) == getattr(yours, counter), (at, counter)
        a, b = mine.monitor, yours.monitor
        assert (a.window_answers, a.full_checks, a.tracked_count()) == (
            b.window_answers, b.full_checks, b.tracked_count(),
        ), at
        assert a.violation_counts() == b.violation_counts(), at
        assert list(a._objects) == list(b._objects), at
        for key, trackers in a._objects.items():
            twins = b._objects[key]
            assert list(trackers) == list(twins), (at, key)
            for cache_id, entry in trackers.items():
                twin = twins[cache_id]
                assert _bits(*entry.encode()) == _bits(*twin.encode()), (
                    at, key, cache_id,
                )
                assert entry.shape == twin.shape, (at, key, cache_id)
                assert entry.policy == twin.policy, (at, key, cache_id)
        assert {key: _bits(*window) for key, window in a._windows.items()} == {
            key: _bits(*window) for key, window in b._windows.items()
        }, at
    for new, old in zip(_caches(ours), _caches(theirs)):
        at = f"{new.cache_id} at {where}"
        assert (new.refreshes_received, new.fanout_refreshes_received) == (
            old.refreshes_received, old.fanout_refreshes_received,
        ), at
        assert new._bound_columns.keys() == old._bound_columns.keys(), at
        for name, params in new._bound_columns.items():
            twin = old._bound_columns[name]
            assert (params.n, params.slot_of, params.custom) == (
                twin.n, twin.slot_of, twin.custom,
            ), (at, name)
            for mine, yours in zip(params.parameters(), twin.parameters()):
                assert mine.tobytes() == yours.tobytes(), (at, name)
        a, b = new.table("t").columns, old.table("t").columns
        n = len(a)
        assert a._tids[:n].tobytes() == b._tids[:n].tobytes(), at
        for column in BOUNDED:
            for side in ("_lo", "_hi"):
                assert (
                    getattr(a, side)[column][:n].tobytes()
                    == getattr(b, side)[column][:n].tobytes()
                ), (at, column, side)


def _replay(ours, theirs, schedule):
    _assert_twins_agree(ours, theirs, "start")
    for step, op in enumerate(schedule):
        kind = op[0]
        tids = sorted(
            tid for _, part in ours.source("s").partitions("t") for tid in part.tids()
        )
        caches = sorted(ours._caches)
        if kind == "advance":
            actions = [lambda system: system.clock.advance(op[1])] + [
                lambda system, cache_id=cache_id: system.cache(cache_id).sync_bounds()
                for cache_id in caches
            ]
        elif kind == "write":
            key = ObjectKey("t", tids[op[1] % len(tids)], op[2])
            actions = [lambda system: system.source("s").apply_update(key, op[3])]
        else:
            cache_id = caches[op[1] % len(caches)]
            wanted = sorted({tids[i % len(tids)] for i in op[2]})
            actions = [
                lambda system: system.cache(cache_id).refresh_batched(
                    system.cache(cache_id).table("t"), wanted
                )
            ]
        for action in actions:
            action(ours)
            action(theirs)
        _assert_twins_agree(ours, theirs, f"step {step} {op} of {schedule}")


@settings(max_examples=120, deadline=None)
@given(
    master=master_tables(),
    shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
    policy=st.sampled_from(sorted(POLICIES)),
    piggyback=st.booleans(),
    replicas=st.integers(min_value=1, max_value=3),
    solo=st.booleans(),
    schedule=schedules(),
    age=st.sampled_from((0.0, 3.0, 48.0)),
)
def test_columnar_source_matches_per_object_reference(
    master, shapes, policy, piggyback, replicas, solo, schedule, age
):
    ours = _build(master, shapes, policy, piggyback, replicas, solo, age)
    theirs = _build(master, shapes, policy, piggyback, replicas, solo, age, True)
    _replay(ours, theirs, schedule)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("piggyback", [False, True])
def test_a_large_refresh_and_its_fanout_match_the_reference(policy, piggyback):
    """Above the delivery route constant, with three replicas and a
    standalone cache, every shape on one of the two shards."""
    master = Table("t", Schema.of(x="bounded", y="bounded", g="exact"))
    for index in range(120):
        master.insert({"x": index / 8.0, "y": -index / 4.0, "g": 0.0})
    for shapes in (SHAPES[:2], SHAPES[2:]):
        ours = _build(master, shapes, policy, piggyback, 3, True, 9.0)
        theirs = _build(master, shapes, policy, piggyback, 3, True, 9.0, True)
        schedule = [
            ("write", 7, "x", 40.0),
            ("refresh", 0, list(range(0, 120, 1))),
            ("advance", 4.0),
            ("refresh", 3, list(range(0, 120, 3))),
            ("write", 8, "y", -3.0),
            ("refresh", 1, [5]),
        ]
        _replay(ours, theirs, schedule)
