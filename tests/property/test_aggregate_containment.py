"""Property: every bounded aggregate contains the precise answer.

For any rows with bounded values and ANY realization (an exact value inside
each bound), the aggregate of the realization lies inside the bounded
answer — with and without a selection predicate.  This is DESIGN.md
invariant 1, the paper's core guarantee.
"""

from hypothesis import given, settings, strategies as st

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.extensions.median_spec import MEDIAN, median_of
from repro.predicates.ast import ColumnRef, Comparison, Literal
from repro.predicates.eval import evaluate_exact
from repro.storage.row import Row

from tests.property.strategies import bounded_rows
from tests.protocol import bound_of, classified, table_of, tids_at


realize = st.data()


def _realized(rows, data):
    out = []
    for row in rows:
        b = row.bound("x")
        v = data.draw(st.floats(min_value=b.lo, max_value=b.hi), label=f"v{row.tid}")
        out.append(Row(row.tid, {"x": v}))
    return out


@given(bounded_rows(min_size=1), st.data())
def test_min_containment(rows, data):
    answer = bound_of(MIN, table_of(rows), "x")
    truth = min(r.number("x") for r in _realized(rows, data))
    assert answer.lo - 1e-6 <= truth <= answer.hi + 1e-6


@given(bounded_rows(min_size=1), st.data())
def test_max_containment(rows, data):
    answer = bound_of(MAX, table_of(rows), "x")
    truth = max(r.number("x") for r in _realized(rows, data))
    assert answer.lo - 1e-6 <= truth <= answer.hi + 1e-6


@given(bounded_rows(), st.data())
def test_sum_containment(rows, data):
    answer = bound_of(SUM, table_of(rows), "x")
    truth = sum(r.number("x") for r in _realized(rows, data))
    assert answer.lo - 1e-3 <= truth <= answer.hi + 1e-3


@given(bounded_rows(min_size=1), st.data())
def test_avg_containment(rows, data):
    answer = bound_of(AVG, table_of(rows), "x")
    realized = _realized(rows, data)
    truth = sum(r.number("x") for r in realized) / len(realized)
    assert answer.lo - 1e-3 <= truth <= answer.hi + 1e-3


@given(bounded_rows(min_size=1), st.data())
def test_median_containment(rows, data):
    answer = bound_of(MEDIAN, table_of(rows), "x")
    truth = median_of([r.number("x") for r in _realized(rows, data)])
    assert answer.lo - 1e-6 <= truth <= answer.hi + 1e-6


thresholds = st.floats(min_value=-100, max_value=100, allow_nan=False)
operators = st.sampled_from(["<", "<=", ">", ">=", "="])


@settings(max_examples=60)
@given(
    bounded_rows(min_size=1, max_size=8), thresholds, operators, st.booleans(),
    st.data(),
)
def test_predicate_aggregates_containment(rows, threshold, op, refine, data):
    """With a predicate over the bounded column, the realized aggregate over
    the tuples that actually satisfy it lies inside the bounded answer —
    with and without the Appendix D refinement of T? bounds."""
    predicate = Comparison(ColumnRef("x"), op, Literal(threshold))
    table = table_of(rows)
    pair = classified(table, predicate)
    refined_by = predicate if refine else None
    realized = _realized(rows, data)
    passing = [r for r in realized if evaluate_exact(predicate, r)]

    count_answer = bound_of(COUNT, table, None, pair)
    assert count_answer.lo <= len(passing) <= count_answer.hi

    sum_answer = bound_of(SUM, table, "x", pair, refined_by)
    truth_sum = sum(r.number("x") for r in passing)
    assert sum_answer.lo - 1e-3 <= truth_sum <= sum_answer.hi + 1e-3

    if passing:
        min_answer = bound_of(MIN, table, "x", pair, refined_by)
        truth_min = min(r.number("x") for r in passing)
        assert min_answer.lo - 1e-6 <= truth_min <= min_answer.hi + 1e-6

        max_answer = bound_of(MAX, table, "x", pair, refined_by)
        truth_max = max(r.number("x") for r in passing)
        assert max_answer.lo - 1e-6 <= truth_max <= max_answer.hi + 1e-6

        avg_answer = bound_of(AVG, table, "x", pair, refined_by)
        truth_avg = truth_sum / len(passing)
        assert avg_answer.lo - 1e-3 <= truth_avg <= avg_answer.hi + 1e-3

        median_answer = bound_of(MEDIAN, table, "x", pair, refined_by)
        truth_median = median_of([r.number("x") for r in passing])
        assert median_answer.lo - 1e-6 <= truth_median <= median_answer.hi + 1e-6


@settings(max_examples=60)
@given(bounded_rows(min_size=1, max_size=8), thresholds, operators)
def test_classification_partitions(rows, threshold, op):
    """T+ and T? are disjoint sets of the table's tuples (T− is the rest)."""
    predicate = Comparison(ColumnRef("x"), op, Literal(threshold))
    table = table_of(rows)
    plus, maybe = (tids_at(table, at) for at in classified(table, predicate))
    assert not plus & maybe
    assert plus | maybe <= {r.tid for r in rows}
