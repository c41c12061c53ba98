"""MetricsRegistry semantics: families, labels, histograms, collectors."""

from __future__ import annotations

import pytest

from repro.errors import TrappError
from repro.telemetry import MetricsRegistry, render_text


def test_counter_children_are_independent_per_label_set():
    registry = MetricsRegistry()
    family = registry.counter("q_total", "queries", ("cache",))
    family.labels(cache="a").inc()
    family.labels(cache="a").inc(2)
    family.labels(cache="b").inc()
    assert registry.value_of("q_total", cache="a") == 3
    assert registry.value_of("q_total", cache="b") == 1
    assert registry.value_of("q_total", cache="missing") == 0


def test_gauge_set_and_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("active", "open connections")
    gauge.inc()
    gauge.inc()
    gauge.dec()
    assert gauge.value == 1
    gauge.set(7)
    assert registry.value_of("active") == 7


def test_family_reregistration_returns_same_family():
    registry = MetricsRegistry()
    first = registry.counter("x_total", "", ("k",))
    second = registry.counter("x_total", "", ("k",))
    assert first is second


def test_family_kind_or_label_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x_total", "", ("k",))
    with pytest.raises(TrappError):
        registry.gauge("x_total", "", ("k",))
    with pytest.raises(TrappError):
        registry.counter("x_total", "", ("other",))


def test_labels_must_match_labelnames():
    registry = MetricsRegistry()
    family = registry.counter("x_total", "", ("k",))
    with pytest.raises(TrappError):
        family.labels(wrong="v")


def test_histogram_buckets_are_cumulative_with_inf_terminal():
    registry = MetricsRegistry()
    histogram = registry.histogram("sizes", "", buckets=(1, 2, 4))
    for value in (1, 2, 3, 100):
        histogram.observe(value)
    sample = registry.get("sizes").samples()[0]
    assert sample["buckets"] == [[1.0, 1], [2.0, 2], [4.0, 3], ["+Inf", 4]]
    assert sample["sum"] == 106
    assert sample["count"] == 4


def test_histogram_set_snapshot_replaces_distribution():
    registry = MetricsRegistry()
    child = registry.histogram("widths", "", buckets=(1.0, 2.0)).labels()
    child.set_snapshot([3, 2, 1], total=7.5)
    assert child.count == 6
    assert child.total == 7.5
    with pytest.raises(TrappError):
        child.set_snapshot([1, 2], total=0.0)  # missing the +Inf slot


def test_collectors_run_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"n": 1}

    def collect(reg):
        reg.gauge("live", "").set(state["n"])

    registry.add_collector(collect)
    assert registry.snapshot()["families"][0]["samples"][0]["value"] == 1
    state["n"] = 5
    assert registry.snapshot()["families"][0]["samples"][0]["value"] == 5


def test_render_text_exposition_shape():
    registry = MetricsRegistry()
    registry.counter("q_total", 'queries "served"', ("cache",)).labels(
        cache="a"
    ).inc(2)
    registry.histogram("lat", "latency", buckets=(0.5, 1.0)).observe(0.7)
    text = render_text(registry.snapshot())
    assert '# TYPE q_total counter' in text
    assert 'q_total{cache="a"} 2' in text
    assert '# HELP q_total queries \\"served\\"' in text
    assert 'lat_bucket{le="0.5"} 0' in text
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert 'lat_sum 0.7' in text
    assert 'lat_count 1' in text
