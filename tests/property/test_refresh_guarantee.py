"""Property: CHOOSE_REFRESH plans guarantee the precision constraint.

The paper's precision guarantee: after refreshing the chosen set, the recomputed
bounded answer has width <= R for EVERY possible realization of the
refreshed values within their prior bounds (and, for predicate queries,
every consistent T? membership outcome).
"""

from hypothesis import given, settings, strategies as st

import repro.extensions.median_spec  # noqa: F401 - registers MEDIAN
from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, get_aggregate
from repro.core.bound import Bound
from repro.core.refresh import (
    CHOOSE_COUNT,
    CHOOSE_MAX,
    CHOOSE_MIN,
    AvgChooseRefresh,
    SumChooseRefresh,
    get_choose_refresh,
)
from repro.predicates.ast import ColumnRef, Comparison, Literal

from tests.property.strategies import bounded_rows
from tests.protocol import bound_of, classified, plan_of, table_of

budgets = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
thresholds = st.floats(min_value=-50, max_value=50, allow_nan=False)

#: The executor plans and bounds with the Appendix D refinement on; a
#: caller may also switch it off.  The guarantee holds either way.
refinement = st.booleans()


def _refresh_at(table, tids, data):
    """Realize a refresh: chosen tuples collapse to a drawn exact value."""
    for tid in sorted(tids):
        b = table.row(tid).bound("x")
        v = data.draw(st.floats(min_value=b.lo, max_value=b.hi), label=f"r{tid}")
        table.update_value(tid, "x", Bound.exact(v))


@given(bounded_rows(min_size=1, max_size=10), budgets, st.data())
def test_min_guarantee(rows, budget, data):
    table = table_of(rows)
    plan = plan_of(CHOOSE_MIN, table, "x", budget)
    _refresh_at(table, plan.tids, data)
    assert bound_of(MIN, table, "x").width <= budget + 1e-6


@given(bounded_rows(min_size=1, max_size=10), budgets, st.data())
def test_max_guarantee(rows, budget, data):
    table = table_of(rows)
    plan = plan_of(CHOOSE_MAX, table, "x", budget)
    _refresh_at(table, plan.tids, data)
    assert bound_of(MAX, table, "x").width <= budget + 1e-6


@settings(max_examples=60)
@given(bounded_rows(max_size=10), budgets, st.data())
def test_sum_guarantee(rows, budget, data):
    table = table_of(rows)
    plan = plan_of(SumChooseRefresh(epsilon=0.1), table, "x", budget)
    _refresh_at(table, plan.tids, data)
    assert bound_of(SUM, table, "x").width <= budget + 1e-6


@settings(max_examples=60)
@given(bounded_rows(min_size=1, max_size=10), budgets, st.data())
def test_avg_guarantee_no_predicate(rows, budget, data):
    table = table_of(rows)
    plan = plan_of(AvgChooseRefresh(epsilon=0.1), table, "x", budget)
    _refresh_at(table, plan.tids, data)
    assert bound_of(AVG, table, "x").width <= budget + 1e-6


def _planned_and_refreshed(chooser, rows, column, threshold, budget, refine, data):
    """Classify, plan, refresh and classify again, as steps 1–3 do.

    Returns the refreshed table, its new ``(T+, T?)`` pair and the
    predicate the answer is refined by (``None``: not refined).
    """
    predicate = Comparison(ColumnRef("x"), ">", Literal(threshold))
    refined_by = predicate if refine else None
    table = table_of(rows)
    plan = plan_of(
        chooser, table, column, budget,
        pair=classified(table, predicate), predicate=refined_by,
    )
    _refresh_at(table, plan.tids, data)
    return table, classified(table, predicate), refined_by


@settings(max_examples=80)
@given(refinement, bounded_rows(min_size=1, max_size=8), thresholds, budgets, st.data())
def test_count_guarantee_with_predicate(refine, rows, threshold, budget, data):
    table, pair, predicate = _planned_and_refreshed(
        CHOOSE_COUNT, rows, None, threshold, budget, refine, data
    )
    answer = bound_of(COUNT, table, None, pair, predicate)
    assert answer.width <= budget + 1e-6


@settings(max_examples=80)
@given(refinement, bounded_rows(min_size=1, max_size=8), thresholds, budgets, st.data())
def test_min_guarantee_with_predicate(refine, rows, threshold, budget, data):
    table, pair, predicate = _planned_and_refreshed(
        CHOOSE_MIN, rows, "x", threshold, budget, refine, data
    )
    answer = bound_of(MIN, table, "x", pair, predicate)
    # When T+ stays empty the answer may be half-infinite; the constraint
    # guarantee applies when a guaranteed-passing tuple exists.
    if len(pair[0]):
        assert answer.width <= budget + 1e-6


@settings(max_examples=80)
@given(refinement, bounded_rows(min_size=1, max_size=8), thresholds, budgets, st.data())
def test_sum_guarantee_with_predicate(refine, rows, threshold, budget, data):
    table, pair, predicate = _planned_and_refreshed(
        SumChooseRefresh(epsilon=0.1), rows, "x", threshold, budget, refine, data
    )
    answer = bound_of(SUM, table, "x", pair, predicate)
    assert answer.width <= budget + 1e-6


@settings(max_examples=60)
@given(refinement, bounded_rows(min_size=1, max_size=7), thresholds, st.data())
def test_avg_guarantee_with_predicate(refine, rows, threshold, data):
    budget = data.draw(st.floats(min_value=0.5, max_value=50), label="budget")
    table, pair, predicate = _planned_and_refreshed(
        AvgChooseRefresh(epsilon=0.1), rows, "x", threshold, budget, refine, data
    )
    answer = bound_of(AVG, table, "x", pair, predicate)
    if len(pair[0]) or len(pair[1]):
        assert answer.width <= budget + 1e-5


@settings(max_examples=40)
@given(bounded_rows(min_size=1, max_size=9), budgets, st.data())
def test_median_guarantee(rows, budget, data):
    table = table_of(rows)
    plan = plan_of(get_choose_refresh("MEDIAN"), table, "x", budget)
    _refresh_at(table, plan.tids, data)
    assert bound_of(get_aggregate("MEDIAN"), table, "x").width <= budget + 1e-6
