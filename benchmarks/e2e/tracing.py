"""Span tracing of the server process, from the benchmark's own files.

A declarative wrap table maps span names to dotted targets.  A target is
resolved in the namespace that *calls* it — ``repro.service.service.
parse_statement`` is the name ``QueryService`` looks up, not the defining
module — so rebinding it there intercepts exactly the calls of that
layer.  Wrapping happens at run time inside the server process only, when
the runner asks for it; the untraced run executes the program untouched.

A target that no longer resolves (a later refactor renamed it) is counted
in ``unresolved`` and skipped: the trace degrades, the benchmark does not
break.

The recorder keeps ``(span id, parent id, request id, name, start, end)``
tuples in memory and writes them out once at exit.  The parent is tracked
through a ``contextvars`` variable, so nesting is per task under asyncio
(a task inherits the context of the code that created it: a query task
inherits the request id set while its line was decoded, and a scheduler
flush task hangs under the ``submit`` that started it).
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import json
import time
from dataclasses import dataclass

_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span_parent", default=0
)
_request: contextvars.ContextVar[object] = contextvars.ContextVar(
    "e2e_span_request", default=None
)


@dataclass(frozen=True)
class Wrap:
    span: str
    target: str
    #: ``call`` times each call (sync or async, detected); ``steps`` times
    #: a generator's first ``next`` as ``<span>.step1`` and every later
    #: ``send`` as ``<span>.step3``; ``leaf`` only accumulates count and
    #: time into the enclosing span (for callables hot enough that one
    #: record per call would dominate the trace).
    kind: str = "call"
    #: When set, the call's result is a wire message whose ``id`` becomes
    #: the request id of the current context.
    tags_request: bool = False


WRAPS: tuple[Wrap, ...] = (
    Wrap("wire.decode", "repro.service.server.decode", tags_request=True),
    Wrap("wire.encode", "repro.service.server.encode"),
    Wrap("wire.answer_payload", "repro.service.server.answer_payload"),
    Wrap("service.query", "repro.service.service.QueryService.query"),
    Wrap("service.route", "repro.service.routing.StickyRouter.route"),
    Wrap("sql.parse", "repro.service.service.parse_statement"),
    Wrap("sql.compile", "repro.service.service.compile_statement"),
    Wrap("core", "repro.service.service.plan_steps", kind="steps"),
    Wrap("predicates.classify", "repro.core.executor.classify_report"),
    Wrap("core.knapsack", "repro.core.refresh.summing.solve_exact_dp"),
    Wrap("core.knapsack", "repro.core.refresh.summing.solve_greedy_uniform"),
    Wrap("core.knapsack", "repro.core.refresh.summing.solve_ibarra_kim"),
    Wrap("core.knapsack", "repro.core.refresh.summing.solve_vector"),
    Wrap("core.knapsack", "repro.core.refresh.average.solve_exact_dp"),
    Wrap("core.knapsack", "repro.core.refresh.average.solve_greedy_uniform"),
    Wrap("core.knapsack", "repro.core.refresh.average.solve_ibarra_kim"),
    Wrap("storage.harvest", "repro.storage.columnar.harvest_candidates"),
    Wrap("storage.order", "repro.storage.columnar.ColumnStore.width_order"),
    Wrap("storage.order", "repro.storage.columnar.ColumnStore.endpoint_order"),
    Wrap(
        "storage.update_value",
        "repro.storage.table.Table.update_value",
        kind="leaf",
    ),
    Wrap("scheduler.submit", "repro.service.scheduler.RefreshScheduler.submit"),
    Wrap("scheduler.rebatch", "repro.service.scheduler.rebatch_plan"),
    Wrap("replication.sync_bounds", "repro.replication.cache.DataCache.sync_bounds"),
    Wrap(
        "replication.refresh_batched",
        "repro.replication.cache.DataCache.refresh_batched",
    ),
    Wrap(
        "replication.source_handle",
        "repro.replication.source.DataSource.handle_refresh_request",
    ),
    Wrap(
        "replication.apply_update",
        "repro.replication.source.DataSource.apply_update",
    ),
)


class Recorder:
    """In-memory span store; one per server process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(parent span id, name) -> [calls, seconds]`` for leaf wraps.
        self.leaves: dict[tuple[int, str], list] = {}
        self.unresolved: list[str] = []
        #: ``(owner, attribute, original)`` of every rebinding in force.
        self._patched: list[tuple] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # ------------------------------------------------------------------
    def install(self, wraps: tuple[Wrap, ...] = WRAPS) -> int:
        """Rebind every resolvable target to its recording wrapper.

        Returns the number of targets that did not resolve.  A phase rerun
        for generator lateness installs again and traces afresh.
        """
        self.uninstall()
        # Cleared in place: the wrappers hold these containers.
        self.spans.clear()
        self.leaves.clear()
        self.unresolved.clear()
        for wrap in wraps:
            resolved = _resolve(wrap.target)
            if resolved is None:
                self.unresolved.append(wrap.target)
                continue
            owner, attribute, original = resolved
            setattr(owner, attribute, self._wrapper(wrap, original))
            self._patched.append((owner, attribute, original))
        return len(self.unresolved)

    def uninstall(self) -> None:
        """Put every original back: later phases run the program untouched."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrapper(self, wrap: Wrap, original):
        if wrap.kind == "leaf":
            return self._leaf_wrapper(wrap.span, original)
        if wrap.kind == "steps":
            return self._steps_wrapper(wrap.span, original)
        if inspect.iscoroutinefunction(original):
            return self._async_wrapper(wrap.span, original)
        return self._sync_wrapper(wrap, original)

    def _sync_wrapper(self, wrap: Wrap, original):
        spans, new_id, name = self.spans, self.new_id, wrap.span
        tags_request = wrap.tags_request
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = new_id()
            parent = _parent.get()
            token = _parent.set(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if tags_request and isinstance(result, dict):
                    _request.set(result.get("id"))
                return result
            finally:
                end = clock()
                _parent.reset(token)
                spans.append((span_id, parent, _request.get(), name, start, end))

        traced.__wrapped__ = original
        return traced

    def _async_wrapper(self, name: str, original):
        spans, new_id = self.spans, self.new_id
        clock = time.perf_counter

        async def traced(*args, **kwargs):
            span_id = new_id()
            parent = _parent.get()
            token = _parent.set(span_id)
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                end = clock()
                _parent.reset(token)
                spans.append((span_id, parent, _request.get(), name, start, end))

        traced.__wrapped__ = original
        return traced

    def _leaf_wrapper(self, name: str, original):
        leaves = self.leaves
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (_parent.get(), name)
                cell = leaves.get(key)
                if cell is None:
                    leaves[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        traced.__wrapped__ = original
        return traced

    def _steps_wrapper(self, name: str, original):
        recorder = self

        def traced(*args, **kwargs):
            return _TimedSteps(original(*args, **kwargs), name, recorder)

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        names: dict[str, int] = {}

        def index(name: str) -> int:
            return names.setdefault(name, len(names))

        document = {
            "spans": [
                [sid, parent, request, index(name), start, end]
                for sid, parent, request, name, start, end in self.spans
            ],
            "leaves": [
                [parent, index(name), calls, seconds]
                for (parent, name), (calls, seconds) in self.leaves.items()
            ],
            "unresolved": self.unresolved,
        }
        document["names"] = sorted(names, key=names.get)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _TimedSteps:
    """A ``plan_steps`` generator whose resumptions are spans.

    The service drives the generator with ``next`` then ``send``; the
    first resumption is step 1 (bound + CHOOSE_REFRESH), every later one
    is step 3 (recheck + assemble, or a further planning round).
    ``StopIteration`` carries the answer and passes through untouched.
    """

    def __init__(self, inner, name: str, recorder: Recorder) -> None:
        self._inner = inner
        self._name = name
        self._recorder = recorder
        self._started = False

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._inner.__next__)

    def send(self, value):
        return self._resume(self._inner.send, value)

    def throw(self, *args):
        return self._inner.throw(*args)

    def close(self):
        return self._inner.close()

    def _resume(self, resume, *args):
        recorder = self._recorder
        name = f"{self._name}.step3" if self._started else f"{self._name}.step1"
        self._started = True
        span_id = recorder.new_id()
        parent = _parent.get()
        token = _parent.set(span_id)
        start = time.perf_counter()
        try:
            return resume(*args)
        finally:
            end = time.perf_counter()
            _parent.reset(token)
            recorder.spans.append(
                (span_id, parent, _request.get(), name, start, end)
            )


def _resolve(target: str):
    """``(owner, attribute, callable)`` for a dotted target, or ``None``."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:-1]:
            owner = getattr(owner, attribute, None)
            if owner is None:
                return None
        original = getattr(owner, parts[-1], None)
        if not callable(original):
            return None
        return owner, parts[-1], original
    return None


# ----------------------------------------------------------------------
# Analysis (runs in the benchmark process, on the dumped file)
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    calls: int = 0
    #: Sum of durations.
    total: float = 0.0
    #: Sum of durations minus the part covered by direct children.
    self_time: float = 0.0


@dataclass
class TraceSummary:
    by_name: dict[str, SpanStats]
    #: ``service.query`` duration per request id.
    query_seconds: dict[object, float]
    #: Leaf work by enclosing span: ``(parent name, leaf name) ->
    #: [calls, seconds]``.
    leaves_under: dict[tuple[str, str], list]
    unresolved: list[str]

    def stats(self, name: str) -> SpanStats:
        return self.by_name.get(name, SpanStats())


def load_summary(path: str) -> TraceSummary:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return summarize(document)


def summarize(document: dict) -> TraceSummary:
    names = document["names"]
    spans = document["spans"]
    span_name: dict[int, str] = {}
    interval: dict[int, tuple[float, float]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _request_id, name_index, start, end in spans:
        span_name[sid] = names[name_index]
        interval[sid] = (start, end)
        if parent:
            children.setdefault(parent, []).append((start, end))
    leaf_seconds: dict[int, float] = {}
    leaves_under: dict[tuple[str, str], list] = {}
    by_name: dict[str, SpanStats] = {}
    for parent, name_index, calls, seconds in document["leaves"]:
        name = names[name_index]
        stats = by_name.setdefault(name, SpanStats())
        stats.calls += calls
        stats.total += seconds
        stats.self_time += seconds
        leaf_seconds[parent] = leaf_seconds.get(parent, 0.0) + seconds
        cell = leaves_under.setdefault((span_name.get(parent, ""), name), [0, 0.0])
        cell[0] += calls
        cell[1] += seconds
    query_seconds: dict[object, float] = {}
    for sid, _parent_id, request_id, name_index, start, end in spans:
        name = names[name_index]
        stats = by_name.setdefault(name, SpanStats())
        duration = end - start
        covered = _covered(children.get(sid, ()), start, end)
        covered += leaf_seconds.get(sid, 0.0)
        stats.calls += 1
        stats.total += duration
        stats.self_time += max(0.0, duration - covered)
        if name == "service.query":
            query_seconds[request_id] = duration
    return TraceSummary(
        by_name=by_name,
        query_seconds=query_seconds,
        leaves_under=leaves_under,
        unresolved=list(document.get("unresolved", ())),
    )


def _covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
