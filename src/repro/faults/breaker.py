"""Per-source circuit breaker: closed → open → half-open → closed.

The scheduler keeps one breaker per source.  ``failure_threshold``
consecutive failures *open* the circuit: further contacts are skipped
outright (their tuples are marked unreached and the query degrades
instead of waiting on a dead source).  After ``cooldown`` seconds of the
breaker's clock, the next :meth:`allow` call transitions to *half-open*
and admits exactly one probe; a success closes the circuit, a failure
re-opens it for another cooldown.

The clock is injectable.  The scheduler passes its one ``clock``, wall
time by default; a test replaying a simulated fault schedule sets it to
the simulation clock, so cooldowns expire at the same simulated instants
on every replay.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Trip after consecutive failures; probe again after a cooldown.

    ``on_transition(old_state, new_state)`` fires on every state change —
    the scheduler wires it to the ``trapp_breaker_state`` gauge and the
    breaker-event counters.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    #: Numeric encoding for the ``trapp_breaker_state`` gauge.
    STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

    __slots__ = (
        "now",
        "failure_threshold",
        "cooldown",
        "on_transition",
        "_state",
        "_failures",
        "_opened_at",
    )

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.now = clock if clock is not None else time.monotonic
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.on_transition = on_transition
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, *without* advancing open → half-open."""
        return self._state

    @property
    def state_code(self) -> int:
        """Numeric state for gauges (0 closed, 1 open, 2 half-open)."""
        return self.STATE_CODES[self._state]

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if old != new_state and self.on_transition is not None:
            self.on_transition(old, new_state)

    def allow(self) -> bool:
        """Whether the caller may contact the source right now.

        In the open state, a call after the cooldown transitions to
        half-open and admits the caller as the single probe; while a
        probe is outstanding (half-open), further callers are refused.
        """
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN:
            if self.now() - self._opened_at >= self.cooldown:
                self._transition(self.HALF_OPEN)
                return True
            return False
        # Half-open: one probe at a time; its outcome decides the state.
        return False

    def record_success(self) -> None:
        """A contact succeeded: close the circuit and reset the count."""
        self._failures = 0
        if self._state != self.CLOSED:
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """A contact failed: count toward the threshold, or re-open."""
        if self._state == self.HALF_OPEN:
            self._opened_at = self.now()
            self._transition(self.OPEN)
            return
        self._failures += 1
        if self._state == self.CLOSED and self._failures >= self.failure_threshold:
            self._opened_at = self.now()
            self._transition(self.OPEN)
