"""Property: the windowed ``RefreshMonitor`` ≡ the per-cache reference.

``RefreshMonitor.violations`` answers most checks from a per-object safe
window without looking at a tracker; the monitor it replaced evaluates
every tracking cache's bound on every check and lives on in
``tests/oracle/percache_monitor.py``.  A rule machine drives one of each
in lock step — every writer of the trackers (``track``, ``update`` with a
fresh zero-width bound, ``forget_cache``, ``forget_object``,
``extract_object`` → ``adopt_object`` into a second monitor), a clock
that advances, stands still or steps *backwards*, and master updates
aimed inside, on the edge of and outside the current window — and after
every check the two must agree: the same violators in the same order (or
the same ``BoundError`` when ``now`` precedes a refresh time), the same
``violation_counts()``, the same ``tracked_count()``.

One machine per K ∈ {1, 2, 5} caches × registered shape.  Cache ids are
tracked in an order that is not their sorted order, so the cache-id
ordering of the violators is earned, not inherited from insertion.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.bounds.functions import SHAPES, BoundFunction
from repro.errors import BoundError
from repro.replication.messages import ObjectKey
from repro.replication.source import RefreshMonitor
from tests.oracle.percache_monitor import (
    PerCacheMonitor,
    _bound_at,
    entries_for_cache,
)

KEYS = (ObjectKey("t", 1, "x"), ObjectKey("u", 1, "y"))
#: Five ids whose listed order is not their sorted order.
CACHE_IDS = ("edge/3", "edge/0", "pinned", "edge/10", "edge/1")

grid = st.integers(min_value=-64, max_value=64).map(lambda k: k / 8.0)
width_parameters = st.sampled_from((0.0, 0.5, 1.0, 3.0))
key_widths = st.tuples(*[width_parameters] * len(KEYS))
key_index = st.integers(min_value=0, max_value=len(KEYS) - 1)
cache_index = st.integers(min_value=0, max_value=len(CACHE_IDS) - 1)
#: Where a master update lands relative to the object's current window.
aims = st.sampled_from(("inside", "lo", "hi", "below", "above", "just_above"))
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: One master update: (clock step before it, aim, fraction, offset, aim at
#: the monitor's window rather than at the true bounds, refresh the
#: violators, with this width).  Time mostly passes between events, so
#: the bounds — and the windows — have width.
checks = st.tuples(
    st.sampled_from((0.0, 0.25, 1.0, 7.0, -1.0)),
    aims, fractions, grid, st.booleans(), st.booleans(), width_parameters,
)
#: An object sees several updates between two writes of its trackers —
#: the case the window exists for — so updates come in bursts.
bursts = st.lists(checks, min_size=1, max_size=6)
maybe_bursts = st.lists(checks, max_size=3)


class _Policy:
    """Stands in for a width policy: the monitors only carry it around."""


class MonitorMachine(RuleBasedStateMachine):
    caches: tuple[str, ...] = ()
    shape = None

    def __init__(self) -> None:
        super().__init__()
        # Two (monitor, oracle) pairs: an object's trackers live in one
        # and move to the other by extract/adopt, as a migration does.
        self.pairs = [(RefreshMonitor(), PerCacheMonitor()) for _ in range(2)]
        self.home = {key: 0 for key in KEYS}
        self.master = {key: 0.0 for key in KEYS}
        self.now = 0.0

    def _pair(self, key: ObjectKey):
        return self.pairs[self.home[key]]

    def _cache(self, index: int) -> str:
        return self.caches[index % len(self.caches)]

    @initialize(widths=st.lists(key_widths, min_size=5, max_size=5))
    def everyone_subscribes(self, widths):
        """Start where a deployment starts: every cache tracks every object."""
        for c in range(len(self.caches)):
            self.track(c, widths[c], 0, [])

    # -- the six writers, each optionally followed by master updates of an
    # object it touched: a writer that forgot to drop the window shows at once.
    @rule(c=cache_index, widths=key_widths, k=key_index, then=maybe_bursts)
    def track(self, c, widths, k, then):
        """One cache subscribes to (or re-subscribes to) every object."""
        cache_id = self._cache(c)
        for key, width in zip(KEYS, widths):
            monitor, oracle = self._pair(key)
            function = BoundFunction(self.master[key], width, self.now, self.shape)
            policy = _Policy()
            monitor.track(cache_id, key, function, policy)
            oracle.track(cache_id, key, function, policy)
        self._then(then, KEYS[k])

    @rule(c=cache_index, k=key_index, width=width_parameters, then=maybe_bursts)
    def update(self, c, k, width, then):
        key, cache_id = KEYS[k], self._cache(c)
        monitor, oracle = self._pair(key)
        if cache_id in oracle.caches_tracking(key):
            self._refresh(monitor, oracle, cache_id, key, width)
            self._then(then, key)

    def _refresh(self, monitor, oracle, cache_id, key, width):
        function = BoundFunction(self.master[key], width, self.now, self.shape)
        monitor.update(
            key, monitor.entry(cache_id, key), *function.encode(), function.shape
        )
        oracle.update(cache_id, key, function)

    @rule(c=cache_index, side=st.integers(0, 1), k=key_index, then=maybe_bursts)
    def forget_cache(self, c, side, k, then):
        monitor, oracle = self.pairs[side]
        monitor.forget_cache(self._cache(c))
        oracle.forget_cache(self._cache(c))
        self._then(then, KEYS[k])

    @rule(k=key_index, then=maybe_bursts)
    def forget_object(self, k, then):
        monitor, oracle = self._pair(KEYS[k])
        monitor.forget_object(KEYS[k])
        oracle.forget_object(KEYS[k])
        self._then(then, KEYS[k])

    @rule(k=key_index, then=maybe_bursts)
    def migrate(self, k, then):
        key = KEYS[k]
        monitor, oracle = self._pair(key)
        moved, expected = monitor.extract_object(key), oracle.extract_object(key)
        assert list(moved) == sorted(expected)
        self._then(then, key)  # nobody tracks it here any more
        self.home[key] = 1 - self.home[key]
        monitor, oracle = self._pair(key)
        monitor.adopt_object(key, moved)
        oracle.adopt_object(key, expected)
        self._then(then, key)

    # -- the clock ---------------------------------------------------------
    @rule(delta=st.sampled_from((0.0, 0.25, 1.0, 7.0, -0.25, -1.0, -7.0)))
    def move_clock(self, delta):
        self.now = max(0.0, self.now + delta)

    # -- master updates ----------------------------------------------------
    @rule(k=key_index, burst=bursts)
    def master_updates(self, k, burst):
        self._then(burst, KEYS[k])

    def _then(self, burst, key):
        for check in burst:
            self._check(check, key)

    def _check(self, check, key):
        delta, aim, fraction, offset, at_window, repair, width = check
        self.move_clock(delta)
        monitor, oracle = self._pair(key)
        value = self._aimed(monitor, oracle, key, aim, fraction, offset, at_window)
        try:
            expected = oracle.violations(key, value, self.now)
        except BoundError as error:
            with pytest.raises(BoundError) as raised:
                monitor.violations(key, value, self.now)
            assert str(raised.value) == str(error)
            return
        got = monitor.violations(key, value, self.now)
        assert [
            (cache_id, entry.bound_function, entry.policy) for cache_id, entry in got
        ] == [
            (cache_id, entry.bound_function, entry.policy)
            for cache_id, entry in expected
        ]
        self.master[key] = value
        if repair:
            # What ``DataSource.apply_update`` does with the violators.
            for cache_id, _ in expected:
                self._refresh(monitor, oracle, cache_id, key, width)

    def _aimed(self, monitor, oracle, key, aim, fraction, offset, at_window) -> float:
        """A value placed against the monitor's window for ``key`` or, when
        it has none (or ``at_window`` is false), against the intersection
        of the bounds the oracle tracks: between the two lie the values
        that miss the window and still violate nothing."""
        window = monitor._windows.get(key)
        if window is not None and at_window:
            lo, hi, _ = window
        else:
            lo, hi = self._intersection(oracle, key)
        return {
            "inside": lo + fraction * (hi - lo),
            "lo": lo,
            "hi": hi,
            "below": lo - abs(offset) - 0.125,
            "above": hi + abs(offset) + 0.125,
            "just_above": math.nextafter(hi, math.inf),
        }[aim]

    def _intersection(self, oracle, key) -> tuple[float, float]:
        master = self.master[key]
        try:
            bounds = [
                _bound_at(oracle._tracked[(cache_id, key)].bound_function, self.now)
                for cache_id in oracle.caches_tracking(key)
            ]
        except BoundError:  # the clock stands before a refresh time
            return master, master
        lo = max((bound.lo for bound in bounds), default=master)
        hi = min((bound.hi for bound in bounds), default=master)
        return (lo, hi) if lo <= hi else (master, master)

    # -- after every step --------------------------------------------------
    @invariant()
    def bookkeeping_agrees(self):
        for monitor, oracle in self.pairs:
            assert monitor.violation_counts() == oracle.violation_counts()
            assert monitor.tracked_count() == oracle.tracked_count()
            for key in KEYS:
                assert monitor.caches_tracking(key) == oracle.caches_tracking(key)
            for cache_id in self.caches:
                assert _by_key(entries_for_cache(monitor, cache_id)) == _by_key(
                    oracle.entries_for_cache(cache_id)
                )
            # A window never outlives the object's trackers.
            assert set(monitor._windows) <= set(monitor._objects)


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)


def _by_key(entries):
    return {key: (entry.bound_function, entry.policy) for key, entry in entries}


def _machine(n_caches: int, shape_name: str):
    return type(
        f"MonitorMachine_{n_caches}_{shape_name}",
        (MonitorMachine,),
        {"caches": CACHE_IDS[:n_caches], "shape": SHAPES[shape_name]},
    )


@pytest.mark.parametrize("shape_name", sorted(SHAPES))
@pytest.mark.parametrize("n_caches", (1, 2, 5))
def test_monitor_agrees_with_the_per_cache_oracle(n_caches, shape_name):
    machine = _machine(n_caches, shape_name)
    machine.TestCase.settings = MACHINE_SETTINGS
    machine.TestCase().runTest()


def test_the_machine_reaches_the_window():
    """The lock step above is vacuous unless checks are answered by the
    window: a fixed walk that any of the nine machines can draw."""
    machine = _machine(2, "sqrt")()
    machine.track(0, (1.0, 1.0), 0, [])
    machine.track(1, (0.5, 0.5), 0, [])
    machine.master_updates(
        0,
        [
            (7.0, "inside", 0.5, 0.0, True, True, 1.0),  # full check
            (0.0, "inside", 0.25, 0.0, True, True, 1.0),
            (0.0, "hi", 0.0, 0.0, True, True, 1.0),
        ],
    )
    monitor, _ = machine.pairs[0]
    assert (monitor.window_answers, monitor.full_checks) == (2, 1)
    machine.master_updates(0, [(0.0, "just_above", 0.0, 0.0, True, True, 1.0)])
    machine.bookkeeping_agrees()
    assert (monitor.window_answers, monitor.full_checks) == (2, 2)
    assert monitor.violation_counts() == {"t": 1}
    machine.teardown()
