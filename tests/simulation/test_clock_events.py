"""Unit tests for the clock and event queue."""

import pytest

from examples.section8.events import EventQueue
from repro.errors import SimulationError
from repro.simulation.clock import Clock


class TestClock:
    def test_advance(self):
        clock = Clock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_no_backwards_motion(self):
        clock = Clock(5.0)
        with pytest.raises(SimulationError):
            clock.advance(-1)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)


class TestEventQueue:
    def test_ordering(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.run_all()
        assert fired == ["a", "b", "c"]
        assert clock.now() == 3.0

    def test_ties_break_by_insertion(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(1.0, lambda: fired.append(2))
        queue.run_all()
        assert fired == [1, 2]

    def test_run_until(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        for t in (1.0, 2.0, 5.0):
            queue.schedule(t, lambda t=t: fired.append(t))
        queue.run_until(3.0)
        assert fired == [1.0, 2.0]
        assert clock.now() == 3.0
        assert len(queue) == 1

    def test_cancellation(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        queue.run_all()
        assert fired == []

    def test_past_scheduling_rejected(self):
        clock = Clock(10.0)
        queue = EventQueue(clock)
        with pytest.raises(SimulationError):
            queue.schedule(-1, lambda: None)
        with pytest.raises(SimulationError):
            queue.schedule_at(5.0, lambda: None)

    def test_chained_scheduling(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []

        def recur(n):
            fired.append(n)
            if n < 3:
                queue.schedule(1.0, lambda: recur(n + 1))

        queue.schedule(1.0, lambda: recur(1))
        queue.run_all()
        assert fired == [1, 2, 3]
        assert clock.now() == 3.0

    def test_runaway_guard(self):
        clock = Clock()
        queue = EventQueue(clock)

        def forever():
            queue.schedule(1.0, forever)

        queue.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            queue.run_all(max_events=100)
