"""Continuous bounded queries (paper §8.1, data-visualization extension).

The paper imagines TRAPP-backed visualizations "modeled as a continuous
query in which precision constraints are formulated in the visual domain":
a dashboard keeps a bounded answer on screen, the system keeps it within
the display's precision (e.g. one pixel's worth of value), and updates are
pushed only when the rendered interval would visibly change.

:class:`ContinuousQuery` implements that loop over a cached table:

* :meth:`poll` recomputes the bounded answer, refreshing through the usual
  three-step executor whenever the constraint is violated;
* a registered listener receives the new answer only when it differs from
  the last delivered one by more than ``notify_delta`` in either endpoint
  — the visual-domain damping;
* statistics count evaluations, refreshes, and notifications so
  experiments can report the update economy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.executor import RefreshProvider, drive_steps, table_steps
from repro.core.refresh.base import CostFunc, uniform_cost
from repro.predicates.ast import Predicate
from repro.storage.table import Table

__all__ = ["ContinuousQuery"]

Listener = Callable[[BoundedAnswer], None]


@dataclass(slots=True)
class ContinuousQuery:
    """A standing bounded query with visual-domain update damping."""

    table: Table
    aggregate: str
    column: str | None
    max_width: float
    refresher: RefreshProvider
    predicate: Predicate | None = None
    cost: CostFunc = uniform_cost
    #: Minimum endpoint movement before listeners are notified.
    notify_delta: float = 0.0

    _listeners: list[Listener] = field(init=False, default_factory=list)
    _last_delivered: Bound | None = field(init=False, default=None)
    evaluations: int = field(init=False, default=0)
    notifications: int = field(init=False, default=0)
    total_refreshes: int = field(init=False, default=0)
    total_refresh_cost: float = field(init=False, default=0.0)

    def subscribe(self, listener: Listener) -> None:
        """Register a callback for visible answer changes."""
        self._listeners.append(listener)

    def poll(self) -> BoundedAnswer:
        """Re-evaluate now; refresh if needed; notify on visible change."""
        steps = table_steps(
            self.table,
            self.aggregate,
            self.column,
            self.max_width,
            self.predicate,
            self.cost,
        )
        answer = drive_steps(steps, self.refresher)
        self.evaluations += 1
        self.total_refreshes += len(answer.refreshed)
        self.total_refresh_cost += answer.refresh_cost
        if self._visibly_different(answer.bound):
            self._last_delivered = answer.bound
            self.notifications += 1
            for listener in self._listeners:
                listener(answer)
        return answer

    def _visibly_different(self, bound: Bound) -> bool:
        if self._last_delivered is None:
            return True
        previous = self._last_delivered
        return (
            abs(bound.lo - previous.lo) > self.notify_delta
            or abs(bound.hi - previous.hi) > self.notify_delta
        )

    @property
    def suppressed(self) -> int:
        """Evaluations that produced no visible change."""
        return self.evaluations - self.notifications
