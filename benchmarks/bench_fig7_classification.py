"""Figure 7: T+/T?/T- classification, regenerated and benchmarked.

Prints the classification table for the paper's three predicates (before
and after refresh) in Figure 7's layout, asserts it matches the paper cell
by cell, and benchmarks the classifier that serves
(:func:`repro.predicates.batch.classify_report`) at a larger scale on both
of its routes — endpoint-index windows and the dense sweep — which must
produce the same partition.
"""

import random

import numpy as np
import pytest

from repro.bench.tables import banner, print_table
from repro.predicates.batch import classify_report
from repro.predicates.parser import parse_predicate
from repro.workloads.netmon import (
    build_master_table,
    generate_topology,
    paper_example_table,
    paper_master_table,
)

PREDICATES = [
    "bandwidth > 50 AND latency < 10",
    "latency > 10",
    "traffic > 100",
]

PAPER_TABLE = {
    # predicate -> (before, after) labels for tuples 1..6
    PREDICATES[0]: (
        ["T+", "T?", "T-", "T?", "T?", "T?"],
        ["T+", "T+", "T-", "T+", "T-", "T-"],
    ),
    PREDICATES[1]: (
        ["T-", "T-", "T+", "T?", "T?", "T-"],
        ["T-", "T-", "T+", "T-", "T+", "T-"],
    ),
    PREDICATES[2]: (
        ["T?", "T+", "T?", "T+", "T?", "T?"],
        ["T-", "T+", "T+", "T+", "T-", "T+"],
    ),
}


def _labels(table, predicate):
    """``T+`` / ``T?`` / ``T-`` per tuple, in tuple-id order."""
    plus, maybe = classify_report(table.columns, predicate).positions
    labels = np.full(len(table), "T-")
    labels[plus] = "T+"
    labels[maybe] = "T?"
    return labels.tolist()


def test_fig7_table_matches_paper():
    cached = paper_example_table()
    master = paper_master_table()
    rows = []
    for text in PREDICATES:
        predicate = parse_predicate(text)
        before_labels = _labels(cached, predicate)
        after_labels = _labels(master, predicate)
        expected_before, expected_after = PAPER_TABLE[text]
        assert before_labels == expected_before, text
        assert after_labels == expected_after, text
        rows.append((text, " ".join(before_labels), " ".join(after_labels)))

    banner("Figure 7 — tuple classification (tuples 1..6)")
    print_table(["predicate", "before refresh", "after refresh"], rows)


@pytest.fixture(scope="module")
def large_table():
    rng = random.Random(123)
    master = build_master_table(generate_topology(200, 2000, rng), rng)
    # Widen values into bounds so classification has real work to do.
    from repro.core.bound import Bound

    for row in master.rows():
        for column in ("latency", "bandwidth", "traffic"):
            value = row.number(column)
            half = rng.uniform(0, 0.3) * value
            master.update_value(row.tid, column, Bound(value - half, value + half))
    return master


def test_classification_routes_agree_at_scale(large_table):
    predicate = parse_predicate(PREDICATES[0])
    a = classify_report(large_table.columns, predicate)
    b = classify_report(large_table.columns, predicate, use_index=False)
    assert a.used_index and not b.used_index
    for ours, theirs in zip(a.positions, b.positions):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("route", ["index", "dense"])
def test_fig7_classification_timing(benchmark, large_table, route):
    predicate = parse_predicate(PREDICATES[0])
    store = large_table.columns
    plus, maybe = benchmark(
        lambda: classify_report(
            store, predicate, use_index=route == "index"
        ).positions
    )
    assert 0 < len(plus) + len(maybe) < len(store)
