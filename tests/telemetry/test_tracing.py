"""Tracer semantics: span lifecycle, ring capacity, pluggable clock."""

from __future__ import annotations

from repro.telemetry import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_span_records_steps_in_event_order_with_clock_timestamps():
    tracer = Tracer(clock=FakeClock())
    span = tracer.start("c1", "SELECT SUM(x) WITHIN 5 FROM t")
    span.step("admit")
    span.step("route", cache="edge/0")
    span.step("plan", tuples=3)
    span.finish(width=4.0)
    [recorded] = tracer.recent()
    assert recorded["client"] == "c1"
    assert recorded["cache"] == "edge/0"  # lifted from the route step
    assert recorded["status"] == "ok"
    assert [s["step"] for s in recorded["steps"]] == [
        "admit", "route", "plan", "answer",
    ]
    ats = [s["at"] for s in recorded["steps"]]
    assert ats == sorted(ats)
    assert recorded["finished_at"] > recorded["started_at"]


def test_unfinished_spans_are_not_served():
    tracer = Tracer()
    tracer.start("c1", "q1")  # never finished
    done = tracer.start("c2", "q2")
    done.finish()
    assert [s["client"] for s in tracer.recent()] == ["c2"]


def test_finish_is_idempotent():
    tracer = Tracer()
    span = tracer.start("c1", "q")
    span.finish()
    span.finish(status="error")
    [recorded] = tracer.recent()
    assert recorded["status"] == "ok"
    assert len(tracer) == 1


def test_ring_buffer_caps_and_filters():
    tracer = Tracer(capacity=3)
    for index in range(5):
        span = tracer.start("c" + str(index % 2), f"q{index}")
        span.finish()
    spans = tracer.recent()
    assert [s["sql"] for s in spans] == ["q2", "q3", "q4"]
    assert [s["sql"] for s in tracer.recent(limit=1)] == ["q4"]
    assert [s["sql"] for s in tracer.recent(client="c1")] == ["q3"]
