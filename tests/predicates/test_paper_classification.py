"""Golden tests: the paper's Figure 7 classification table.

Figure 7 classifies the six Figure 2 links under three predicates, both
before any refresh (bounds) and after refreshing every tuple (precise
values).
"""

import pytest

from repro.predicates.parser import parse_predicate
from repro.workloads.netmon import paper_example_table, paper_master_table
from tests.protocol import classified, labels_of

BEFORE = {
    "bandwidth > 50 AND latency < 10": {
        1: "T+", 2: "T?", 3: "T-", 4: "T?", 5: "T?", 6: "T?",
    },
    "latency > 10": {
        1: "T-", 2: "T-", 3: "T+", 4: "T?", 5: "T?", 6: "T-",
    },
    "traffic > 100": {
        1: "T?", 2: "T+", 3: "T?", 4: "T+", 5: "T?", 6: "T?",
    },
}

AFTER = {
    "bandwidth > 50 AND latency < 10": {
        1: "T+", 2: "T+", 3: "T-", 4: "T+", 5: "T-", 6: "T-",
    },
    "latency > 10": {
        1: "T-", 2: "T-", 3: "T+", 4: "T-", 5: "T+", 6: "T-",
    },
    "traffic > 100": {
        1: "T-", 2: "T+", 3: "T+", 4: "T+", 5: "T-", 6: "T+",
    },
}


@pytest.mark.parametrize("predicate_text", list(BEFORE))
def test_figure7_before_refresh(predicate_text):
    table = paper_example_table()
    labels = labels_of(table, classified(table, parse_predicate(predicate_text)))
    for tid, expected in BEFORE[predicate_text].items():
        assert labels[tid] == expected, (
            f"{predicate_text}: tuple {tid} should be {expected}"
        )


@pytest.mark.parametrize("predicate_text", list(AFTER))
def test_figure7_after_refresh(predicate_text):
    table = paper_master_table()
    labels = labels_of(table, classified(table, parse_predicate(predicate_text)))
    for tid, expected in AFTER[predicate_text].items():
        assert labels[tid] == expected, (
            f"{predicate_text}: tuple {tid} should be {expected}"
        )


def test_after_refresh_has_no_maybes():
    table = paper_master_table()
    for predicate_text in AFTER:
        _, maybe = classified(table, parse_predicate(predicate_text))
        assert not len(maybe)
