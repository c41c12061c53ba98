"""Unit tests for T+/T?/T− classification and the bound-restriction
refinement."""

import numpy as np
import pytest

from repro.core.bound import Bound
from repro.predicates.batch import restrict_endpoints
from repro.predicates.parser import parse_predicate
from repro.storage.row import Row
from tests.oracle.row_protocol import classify, classify_trilean
from tests.protocol import classified, labels_of, table_of, tids_at


def rows_of(*bounds):
    return [Row(i + 1, {"x": b}) for i, b in enumerate(bounds)]


def classes(rows, text):
    """``(T+, T?, T−)`` tuple-id lists from the served classifier."""
    table = table_of(rows)
    labels = labels_of(table, classified(table, parse_predicate(text)))
    return tuple(
        [tid for tid, label in labels.items() if label == wanted]
        for wanted in ("T+", "T?", "T-")
    )


def restrict_bound(bound, predicate, column):
    """The served Appendix D refinement, on one bound."""
    lo, hi = restrict_endpoints(
        np.array([bound.lo]), np.array([bound.hi]), predicate, column
    )
    return Bound(float(lo[0]), float(hi[0]))


class TestClassify:
    def test_three_way_split(self):
        rows = rows_of(Bound(6, 9), Bound(3, 7), Bound(0, 2))
        assert classes(rows, "x > 5") == ([1], [2], [3])

    def test_counts_and_union(self):
        table = table_of(rows_of(Bound(6, 9), Bound(3, 7), Bound(0, 2)))
        plus, maybe = classified(table, parse_predicate("x > 5"))
        assert (len(plus), len(maybe), len(table) - len(plus) - len(maybe)) == (1, 1, 1)
        assert tids_at(table, plus) | tids_at(table, maybe) == {1, 2}

    def test_label_of(self):
        table = table_of(rows_of(Bound(6, 9), Bound(3, 7), Bound(0, 2)))
        labels = labels_of(table, classified(table, parse_predicate("x > 5")))
        assert labels[1] == "T+"
        assert labels[2] == "T?"
        assert labels[3] == "T-"
        with pytest.raises(KeyError):
            labels[99]

    def test_agrees_with_trilean_route(self):
        """Three classifiers, one partition: the served array classifier,
        the symbolic Possible/Certain route and direct three-valued
        evaluation (the last two from the row oracle)."""
        import random

        rng = random.Random(19)
        predicates = [
            "x > 5",
            "x < 5 AND x > 1",
            "NOT x >= 4",
            "x = 3",
            "x != 3",
            "x > 2 OR x < 1",
        ]
        for _ in range(20):
            rows = rows_of(
                *[
                    Bound(lo, lo + rng.uniform(0, 6))
                    for lo in (rng.uniform(-2, 8) for _ in range(10))
                ]
            )
            for text in predicates:
                p = parse_predicate(text)
                a = classify(rows, p)
                b = classify_trilean(rows, p)
                served = classes(rows, text)
                for k, (ours, theirs) in enumerate(
                    zip((a.plus, a.maybe, a.minus), (b.plus, b.maybe, b.minus))
                ):
                    assert [r.tid for r in ours] == [r.tid for r in theirs], text
                    assert [r.tid for r in ours] == served[k], text

    def test_exact_values_classify_two_ways_only(self):
        rows = [Row(1, {"x": 7.0}), Row(2, {"x": 3.0})]
        assert classes(rows, "x > 5") == ([1], [], [2])


class TestRestrictBound:
    def test_greater_than(self):
        p = parse_predicate("x > 10")
        assert restrict_bound(Bound(3, 15), p, "x") == Bound(10, 15)

    def test_less_than(self):
        p = parse_predicate("x < 5")
        assert restrict_bound(Bound(3, 15), p, "x") == Bound(3, 5)

    def test_conjunction(self):
        p = parse_predicate("x > 4 AND x < 9")
        assert restrict_bound(Bound(0, 20), p, "x") == Bound(4, 9)

    def test_equality_pins(self):
        p = parse_predicate("x = 7")
        assert restrict_bound(Bound(0, 20), p, "x") == Bound.exact(7)

    def test_reversed_comparison_normalized(self):
        p = parse_predicate("10 < x")
        assert restrict_bound(Bound(3, 15), p, "x") == Bound(10, 15)

    def test_other_column_untouched(self):
        p = parse_predicate("y > 10")
        assert restrict_bound(Bound(3, 15), p, "x") == Bound(3, 15)

    def test_disjunction_untouched(self):
        p = parse_predicate("x > 10 OR x < 2")
        assert restrict_bound(Bound(3, 15), p, "x") == Bound(3, 15)

    def test_never_widens_or_escapes(self):
        import random

        rng = random.Random(41)
        predicates = ["x > 5", "x < 5", "x >= 2 AND x <= 8", "x = 4"]
        for _ in range(30):
            lo = rng.uniform(-5, 10)
            bound = Bound(lo, lo + rng.uniform(0, 10))
            for text in predicates:
                shrunk = restrict_bound(bound, parse_predicate(text), "x")
                assert bound.contains_bound(shrunk)

    def test_disjoint_constraint_clamps_to_edge(self):
        # Predicate excludes the whole bound: restriction degenerates to
        # the nearest endpoint (the tuple is really in T-, harmless).
        p = parse_predicate("x > 100")
        assert restrict_bound(Bound(0, 5), p, "x") == Bound(5, 5)
