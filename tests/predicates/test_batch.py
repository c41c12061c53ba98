"""Vectorized classification/refinement vs the row-at-a-time reference."""

import numpy as np
import pytest

from repro.core.bound import Bound
from repro.errors import PredicateTypeError
from repro.predicates.batch import (
    classify_dense,
    classify_masks,
    classify_report,
    restrict_endpoints,
)
from repro.predicates.parser import parse_predicate
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import classification_from_masks, classify_columnar
from tests.oracle.row_protocol import classify, classify_trilean, restrict_bound

PREDICATES = [
    "x > 4",
    "x >= 4",
    "x < 4",
    "x <= 4",
    "x = 5",
    "x != 5",
    "x > 2 AND x < 8",
    "x > 2 OR y < 1",
    "NOT (x > 4)",
    "NOT (x > 2 AND y < 5)",
    "2 * x + 1 < 9",
    "-1 * x < -4",
    "x > y",
    "x = y",
    "tag = 'a'",
    "tag != 'a'",
    "tag = 'a' AND x > 4",
    "cost > 3",
    "cost > 3 OR x <= 1",
]


def make_table():
    table = Table("t", Schema.of(x="bounded", y="bounded", cost="exact", tag="text"))
    data = [
        (Bound(0, 10), Bound(2, 3), 1.0, "a"),
        (Bound(5, 5), Bound(0, 9), 2.0, "b"),
        (Bound(4, 6), 4.0, 3.0, "a"),
        (Bound(-2, 1), Bound(5, 5), 4.0, "c"),
        (7.0, Bound(6, 8), 5.0, "a"),
        (Bound(4, 4), Bound(4, 4), 6.0, "b"),
    ]
    for x, y, cost, tag in data:
        table.insert({"x": x, "y": y, "cost": cost, "tag": tag})
    return table


def tids(rows):
    return [row.tid for row in rows]


class TestClassifyMasks:
    @pytest.mark.parametrize("text", PREDICATES)
    def test_matches_row_classify(self, text):
        table = make_table()
        predicate = parse_predicate(text)
        reference = classify(table.rows(), predicate)
        columnar = classify_columnar(table, predicate)
        assert tids(columnar.plus) == tids(reference.plus), text
        assert tids(columnar.maybe) == tids(reference.maybe), text
        assert tids(columnar.minus) == tids(reference.minus), text

    def test_true_predicate_all_plus(self):
        table = make_table()
        certain, possible = classify_masks(table.columns, parse_predicate("TRUE"))
        assert certain.all() and possible.all()

    def test_masks_follow_mutations(self):
        table = make_table()
        predicate = parse_predicate("x > 4")
        certain, _ = classify_masks(table.columns, predicate)
        assert not certain[0]
        table.update_value(1, "x", 9.0)  # collapse tuple 1 above the cut
        certain, _ = classify_masks(table.columns, predicate)
        assert certain[0]

    def test_string_number_comparison_rejected(self):
        table = make_table()
        with pytest.raises(PredicateTypeError):
            classify_masks(table.columns, parse_predicate("tag = 3"))

    def test_string_ordering_rejected(self):
        table = make_table()
        with pytest.raises(PredicateTypeError):
            classify_masks(table.columns, parse_predicate("tag < 'b'"))

    @pytest.mark.parametrize("text", ["tag <= 'b'", "tag >= 'b'", "tag < 'b'"])
    def test_string_ordering_rejected_on_every_route(self, text):
        """All three classification routes must agree that order
        comparisons on strings are errors — only the =/!= translation's
        internal <=/>= endpoint checks may touch strings."""
        table = make_table()
        predicate = parse_predicate(f"{text} AND x > 4")
        with pytest.raises(PredicateTypeError):
            classify(table.rows(), predicate)
        with pytest.raises(PredicateTypeError):
            classify_masks(table.columns, predicate)

    def test_empty_table(self):
        table = Table("t", Schema.of(x="bounded"))
        certain, possible = classify_masks(table.columns, parse_predicate("x > 1"))
        assert len(certain) == 0 and len(possible) == 0

    def test_classification_from_masks_alignment(self):
        table = make_table()
        certain, possible = classify_masks(table.columns, parse_predicate("x > 4"))
        built = classification_from_masks(table.rows(), certain, possible)
        reference = classify(table.rows(), parse_predicate("x > 4"))
        assert built.counts() == reference.counts()


class TestRestrictEndpoints:
    @pytest.mark.parametrize(
        "text",
        [
            "x > 4",
            "x >= 4",
            "x < 4",
            "x <= 4",
            "x = 5",
            "x > 2 AND x < 8",
            "x > 2 AND y < 5",
            "x > 2 OR x < 1",  # no sound restriction
            "NOT (x > 4)",  # no sound restriction
            "y > 100",  # other column: untouched
        ],
    )
    def test_matches_restrict_bound(self, text):
        predicate = parse_predicate(text)
        bounds = [
            Bound(0, 10),
            Bound(5, 5),
            Bound(-3, 2),
            Bound(4.5, 7.5),
            Bound(8, 20),
        ]
        lo = np.array([b.lo for b in bounds])
        hi = np.array([b.hi for b in bounds])
        new_lo, new_hi = restrict_endpoints(lo, hi, predicate, "x")
        for i, b in enumerate(bounds):
            expected = restrict_bound(b, predicate, "x")
            assert (new_lo[i], new_hi[i]) == (expected.lo, expected.hi), (text, b)

    def test_inputs_not_mutated(self):
        lo = np.array([0.0, 1.0])
        hi = np.array([10.0, 2.0])
        restrict_endpoints(lo, hi, parse_predicate("x > 5"), "x")
        assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [10.0, 2.0]


SCALED_PREDICATES = [
    "-2 * x + 3 < 5",
    "-2 * x + 3 <= 5",
    "-2 * x + 3 > 5",
    "-2 * x + 3 >= 5",
    "-2 * x + 3 = 5",
    "-2 * x + 3 != 5",
    "2 * x - 1 > 7",
    "0.5 * x < 2",
    "-1 * x < -4",
    "3 * x + 2 >= 14 AND -1 * y > -6",
    "NOT (-2 * x < -8)",
]


class TestScaledTermClassification:
    """ISSUE 10 satellite: scaled/negated terms against the row path.

    Scaled terms exercise the endpoint swap (negative scale reads the
    *hi* order for the term's low end) and the scalar-probe arithmetic;
    every form must agree with the row-at-a-time trilean evaluator and
    be identical across the index and dense routes.
    """

    @pytest.mark.parametrize("text", SCALED_PREDICATES)
    def test_matches_classify_trilean(self, text):
        table = make_table()
        predicate = parse_predicate(text)
        reference = classify_trilean(table.rows(), predicate)
        certain, possible = classify_masks(table.columns, predicate)
        built = classification_from_masks(table.rows(), certain, possible)
        assert tids(built.plus) == tids(reference.plus), text
        assert tids(built.maybe) == tids(reference.maybe), text
        assert tids(built.minus) == tids(reference.minus), text

    @pytest.mark.parametrize("text", SCALED_PREDICATES)
    def test_index_and_dense_routes_identical(self, text):
        table = make_table()
        predicate = parse_predicate(text)
        report = classify_report(table.columns, predicate)
        dense_c, dense_p = classify_dense(table.columns, predicate)
        assert np.array_equal(report.certain, dense_c), text
        assert np.array_equal(report.possible, dense_p), text
        assert report.used_index, text

    def test_scale_zero_falls_back_to_dense(self):
        """``0 * x`` is a constant, which no endpoint window describes,
        so the leaf is index-ineligible — but the masks still match the
        row path exactly."""
        table = make_table()
        predicate = parse_predicate("0 * x + 3 < 5")
        report = classify_report(table.columns, predicate)
        assert not report.used_index
        reference = classify_trilean(table.rows(), predicate)
        built = classification_from_masks(
            table.rows(), report.certain, report.possible
        )
        assert tids(built.plus) == tids(reference.plus)
        assert tids(built.maybe) == tids(reference.maybe)

    def test_scale_zero_on_unbounded_tuple(self):
        """``0 · x`` is 0 under every realization of ``x``, an unbounded
        one included — ``Bound.__mul__``'s convention on the row path.
        The dense route used to compute ``0 · ∞ = nan`` elementwise and
        put a tuple that certainly satisfies ``0 * x < 1`` in T−."""
        table = Table("t", Schema.of(x="bounded"))
        table.insert({"x": Bound(float("-inf"), float("inf"))})
        table.insert({"x": Bound(1.0, 2.0)})
        for text, satisfied in [
            ("0 * x < 1", True),
            ("0 * x + 2 < 1", False),
            ("0 * x = 0", True),
        ]:
            predicate = parse_predicate(text)
            report = classify_report(table.columns, predicate)
            assert not report.used_index
            dense_c, dense_p = classify_dense(table.columns, predicate)
            assert np.array_equal(report.certain, dense_c), text
            assert np.array_equal(report.possible, dense_p), text
            assert report.certain.tolist() == [satisfied, satisfied], text
            assert report.possible.tolist() == [satisfied, satisfied], text
            reference = classify_trilean(table.rows(), predicate)
            built = classification_from_masks(
                table.rows(), report.certain, report.possible
            )
            assert tids(built.plus) == tids(reference.plus), text
            assert tids(built.maybe) == tids(reference.maybe), text
            assert tids(built.minus) == tids(reference.minus), text


class TestClassifyReport:
    """The index route's by-products: positions, laziness, fractions."""

    @pytest.mark.parametrize("text", PREDICATES)
    def test_index_route_masks_bit_identical(self, text):
        table = make_table()
        predicate = parse_predicate(text)
        report = classify_report(table.columns, predicate)
        dense_c, dense_p = classify_dense(table.columns, predicate)
        assert np.array_equal(report.certain, dense_c), text
        assert np.array_equal(report.possible, dense_p), text

    @pytest.mark.parametrize("text", PREDICATES)
    def test_positions_match_masks(self, text):
        table = make_table()
        predicate = parse_predicate(text)
        report = classify_report(table.columns, predicate)
        certain_at, maybe_at = report.positions  # whichever route ran
        assert np.array_equal(certain_at, np.flatnonzero(report.certain)), text
        assert np.array_equal(
            maybe_at,
            np.flatnonzero(report.possible & ~report.certain),
        ), text

    def test_column_vs_column_is_dense(self):
        table = make_table()
        report = classify_report(table.columns, parse_predicate("x > y"))
        assert not report.used_index
        assert report.window_fraction is None

    def test_window_fraction_counts_straddle_only(self):
        table = Table("t", Schema.of(x="bounded"))
        for i in range(10):
            table.insert({"x": Bound(float(i), float(i))})
        table.insert({"x": Bound(4.5, 5.5)})  # the one straddler of c=5
        report = classify_report(table.columns, parse_predicate("x > 5"))
        assert report.used_index
        # One leaf over 11 tuples; the certain window (lo > 5) holds 4
        # entries and the possible window (hi > 5) 5, so 9 decisions of
        # the leaf's 11 were materialized instead of skipped wholesale.
        assert report.window_fraction == pytest.approx(9 / 11)

    def test_report_is_a_snapshot(self):
        """Mutating the store after classification must not change what
        the report's lazy properties return."""
        table = make_table()
        predicate = parse_predicate("x > 4")
        report = classify_report(table.columns, predicate)
        before = (
            report.certain_positions.copy(),
            report.maybe_positions.copy(),
        )
        table.update_value(1, "x", 0.0)
        assert np.array_equal(report.certain_positions, before[0])
        assert np.array_equal(report.maybe_positions, before[1])
