"""A discrete-event queue for TRAPP simulations.

Minimal but complete: events are ``(time, sequence, callback)`` triples in
a binary heap; ties break by insertion order so runs are deterministic.
The engine (``engine.py`` beside this module) layers workload scheduling on
top of this queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.simulation.clock import Clock

__all__ = ["Event", "EventQueue"]

Callback = Callable[[], None]


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback; ordering is (time, seq)."""

    time: float
    seq: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap event queue bound to a clock."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._heap: list[Event] = []
        self._seq = 0
        self.processed = 0

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule(self, delay: float, callback: Callback) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} in the past")
        return self.schedule_at(self.clock.now() + delay, callback)

    def schedule_at(self, when: float, callback: Callback) -> Event:
        """Schedule ``callback`` at an absolute time."""
        if when < self.clock.now():
            raise SimulationError(
                f"cannot schedule at {when}, before current time {self.clock.now()}"
            )
        event = Event(when, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def step(self) -> bool:
        """Run the earliest pending event; False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            self.processed += 1
            return True
        return False

    def run_until(self, when: float) -> int:
        """Run every event scheduled at or before ``when``; returns count."""
        ran = 0
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > when:
                break
            self.step()
            ran += 1
        self.clock.advance_to(max(self.clock.now(), when))
        return ran

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Drain the queue entirely (bounded to catch runaway schedules)."""
        ran = 0
        while self.step():
            ran += 1
            if ran >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted; "
                    "likely an unbounded re-scheduling loop"
                )
        return ran
