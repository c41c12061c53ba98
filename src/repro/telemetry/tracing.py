"""Per-query lifecycle tracing through the step protocol.

Every query the :class:`~repro.service.service.QueryService` runs emits
one *span* — a :class:`QueryTrace` — whose step events follow the serving
pipeline::

    admit → route → plan → coalesce → dispatch → refresh → answer

``admit``/``route`` come from the service's admission and routing layers,
``plan`` fires each time the PR 6 step protocol yields a
:class:`~repro.core.executor.PlannedRefresh`, ``coalesce``/``dispatch``
are recorded by the :class:`~repro.service.scheduler.RefreshScheduler`
tick that absorbed the plan (so a span shows exactly which shared batch
paid for it), ``refresh`` carries the cost share attributed back, and
``answer`` closes the span with the answer's width and provenance
(executed, result cache, or single-flight join).

Timestamps come from the tracer's ``clock`` callable — the deployment's
:class:`~repro.simulation.clock.Clock` under simulation (deterministic
spans) and ``time.perf_counter`` for live wall-clock serving.  Completed
spans land in a fixed-capacity ring buffer served by the ``trace`` wire op.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Callable

__all__ = ["Tracer", "QueryTrace", "STEP_ORDER"]

#: The canonical step vocabulary, in pipeline order (documented in
#: docs/OBSERVABILITY.md; the ``trace`` op emits steps in event order).
STEP_ORDER = (
    "admit", "route", "classify", "plan", "coalesce", "dispatch", "refresh",
    "degraded", "answer",
)


class QueryTrace:
    """One query's span: identity plus an ordered list of step events."""

    __slots__ = (
        "trace_id", "client_id", "sql", "cache_id",
        "started_at", "finished_at", "status", "steps", "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", trace_id: int, client_id: str, sql: str
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.client_id = client_id
        self.sql = sql
        self.cache_id = ""
        self.started_at = tracer.clock()
        self.finished_at: float | None = None
        self.status = "in-flight"
        self.steps: list[dict] = []

    def step(self, name: str, **fields) -> None:
        """Record one pipeline event at the current clock reading."""
        event = {"step": name, "at": self._tracer.clock()}
        if fields:
            event.update(fields)
        self.steps.append(event)
        if name == "route" and "cache" in fields:
            self.cache_id = str(fields["cache"])

    def finish(self, status: str = "ok", **fields) -> None:
        """Close the span (idempotent) and commit it to the ring buffer."""
        if self.finished_at is not None:
            return
        self.finished_at = self._tracer.clock()
        self.status = status
        if fields:
            self.step("answer", **fields)
        self._tracer._commit(self)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "client": self.client_id,
            "sql": self.sql,
            "cache": self.cache_id,
            "status": self.status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "steps": list(self.steps),
        }


class Tracer:
    """A ring buffer of completed query spans.

    ``capacity`` bounds memory on a long-running server; the ``trace``
    wire op reads the most recent spans, newest last.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 256,
    ) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self._spans: deque[QueryTrace] = deque(maxlen=capacity)
        self._ids = itertools.count(1)

    def start(self, client_id: str, sql: str) -> QueryTrace:
        """Open a span for one query."""
        return QueryTrace(self, next(self._ids), client_id, sql)

    def _commit(self, span: QueryTrace) -> None:
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def recent(
        self, limit: int | None = None, client: str | None = None
    ) -> list[dict]:
        """The newest completed spans (oldest first), optionally filtered
        by client id and truncated to the last ``limit``."""
        spans = [
            span.as_dict()
            for span in self._spans
            if client is None or span.client_id == client
        ]
        if limit is not None and limit >= 0:
            spans = spans[len(spans) - min(limit, len(spans)):]
        return spans
