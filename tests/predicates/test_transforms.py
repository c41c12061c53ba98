"""Unit tests for the Possible/Certain endpoint transforms (Appendix D)."""

import itertools

from repro.core.bound import Bound
from repro.predicates.parser import parse_predicate
from repro.storage.row import Row
from tests.oracle.row_eval import evaluate_exact
from tests.oracle.transforms import (
    certain,
    endpoint_sql,
    evaluate_endpoint,
    possible,
)


def row(**values):
    return Row(1, values)


class TestComparisonRules:
    """Figure 8's translation table, case by case."""

    def test_lt(self):
        p = parse_predicate("a < b")
        r = row(a=Bound(1, 5), b=Bound(3, 8))
        assert evaluate_endpoint(possible(p), r)  # 1 < 8
        assert not evaluate_endpoint(certain(p), r)  # 5 !< 3
        r2 = row(a=Bound(1, 2), b=Bound(3, 8))
        assert evaluate_endpoint(certain(p), r2)

    def test_le(self):
        p = parse_predicate("a <= b")
        r = row(a=Bound(1, 3), b=Bound(3, 8))
        assert evaluate_endpoint(certain(p), r)  # 3 <= 3

    def test_gt_ge_flip(self):
        r = row(a=Bound(5, 9), b=Bound(1, 4))
        assert evaluate_endpoint(certain(parse_predicate("a > b")), r)
        assert evaluate_endpoint(certain(parse_predicate("a >= b")), r)

    def test_eq_possible_is_overlap(self):
        p = parse_predicate("a = b")
        assert evaluate_endpoint(possible(p), row(a=Bound(1, 5), b=Bound(4, 9)))
        assert not evaluate_endpoint(possible(p), row(a=Bound(1, 3), b=Bound(4, 9)))

    def test_eq_certain_needs_points(self):
        p = parse_predicate("a = b")
        assert evaluate_endpoint(certain(p), row(a=Bound.exact(4), b=Bound.exact(4)))
        assert not evaluate_endpoint(certain(p), row(a=Bound(4, 4), b=Bound(4, 5)))

    def test_ne_duality(self):
        p = parse_predicate("a != b")
        # Certainly unequal when disjoint.
        assert evaluate_endpoint(certain(p), row(a=Bound(1, 2), b=Bound(3, 4)))
        # Possibly unequal unless both are the same point.
        assert evaluate_endpoint(possible(p), row(a=Bound(1, 3), b=Bound(2, 4)))
        assert not evaluate_endpoint(
            possible(p), row(a=Bound.exact(2), b=Bound.exact(2))
        )

    def test_constant_operand(self):
        p = parse_predicate("a > 5")
        assert evaluate_endpoint(certain(p), row(a=Bound(6, 9)))
        assert evaluate_endpoint(possible(p), row(a=Bound(3, 9)))
        assert not evaluate_endpoint(possible(p), row(a=Bound(0, 5)))


class TestBooleanRules:
    def test_not_swaps_transforms(self):
        p = parse_predicate("NOT a > 5")
        # Possible(NOT E) = NOT Certain(E).
        assert evaluate_endpoint(possible(p), row(a=Bound(3, 9)))
        assert not evaluate_endpoint(possible(p), row(a=Bound(6, 9)))
        # Certain(NOT E) = NOT Possible(E).
        assert evaluate_endpoint(certain(p), row(a=Bound(0, 5)))
        assert not evaluate_endpoint(certain(p), row(a=Bound(3, 9)))

    def test_and_or(self):
        p = parse_predicate("a > 5 AND b < 3")
        r = row(a=Bound(6, 9), b=Bound(0, 2))
        assert evaluate_endpoint(certain(p), r)
        p2 = parse_predicate("a > 5 OR b < 3")
        r2 = row(a=Bound(0, 1), b=Bound(0, 2))
        assert evaluate_endpoint(certain(p2), r2)


class TestSoundnessExhaustive:
    """Certain(P) implies P for all realizations; NOT Possible(P) implies
    NOT P for all realizations — checked by grid enumeration."""

    PREDICATES = [
        "a < b",
        "a <= b",
        "a > b",
        "a >= b",
        "a = b",
        "a != b",
        "a < 3 AND b > 2",
        "a < 3 OR b > 2",
        "NOT a < b",
        "NOT (a < 3 AND b > 2)",
        "a < 3 AND (b > 2 OR a > 1)",
    ]

    INTERVALS = [Bound(0, 2), Bound(1, 3), Bound(2, 2), Bound(0, 5), Bound(3, 4)]

    def _realizations(self, bound, steps=3):
        if bound.is_exact:
            return [bound.lo]
        return [
            bound.lo + (bound.hi - bound.lo) * i / (steps - 1) for i in range(steps)
        ]

    def test_certain_implies_all(self):
        for text in self.PREDICATES:
            p = parse_predicate(text)
            cert = certain(p)
            for a, b in itertools.product(self.INTERVALS, repeat=2):
                r = row(a=a, b=b)
                if evaluate_endpoint(cert, r):
                    for va in self._realizations(a):
                        for vb in self._realizations(b):
                            assert evaluate_exact(p, row(a=va, b=vb)), (
                                f"{text} claimed certain for a={a}, b={b} "
                                f"but fails at ({va}, {vb})"
                            )

    def test_not_possible_implies_none(self):
        for text in self.PREDICATES:
            p = parse_predicate(text)
            poss = possible(p)
            for a, b in itertools.product(self.INTERVALS, repeat=2):
                r = row(a=a, b=b)
                if not evaluate_endpoint(poss, r):
                    for va in self._realizations(a):
                        for vb in self._realizations(b):
                            assert not evaluate_exact(p, row(a=va, b=vb)), (
                                f"{text} claimed impossible for a={a}, b={b} "
                                f"but holds at ({va}, {vb})"
                            )

    def test_certain_implies_possible(self):
        for text in self.PREDICATES:
            p = parse_predicate(text)
            cert, poss = certain(p), possible(p)
            for a, b in itertools.product(self.INTERVALS, repeat=2):
                r = row(a=a, b=b)
                if evaluate_endpoint(cert, r):
                    assert evaluate_endpoint(poss, r)


class TestSqlRendering:
    def test_simple(self):
        p = parse_predicate("bandwidth > 50 AND latency < 10")
        assert endpoint_sql(certain(p)) == (
            "(bandwidth__lo > 50 AND latency__hi < 10)"
        )
        assert endpoint_sql(possible(p)) == (
            "(bandwidth__hi > 50 AND latency__lo < 10)"
        )

    def test_negation(self):
        p = parse_predicate("NOT a < 3")
        assert "NOT" in endpoint_sql(possible(p))

    def test_scaled_term(self):
        p = parse_predicate("2 * a < 3")
        text = endpoint_sql(possible(p))
        assert "2 * a__lo" in text
