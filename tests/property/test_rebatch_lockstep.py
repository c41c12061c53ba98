"""§8.2 rebatching on tuple ids ≡ the row-taking pass it replaced.

:func:`repro.extensions.batching.rebatch_plan` takes candidate tuple ids,
widths and a ``tid → source`` mapping, and is told once (``sunk``) which
sources' setups are already paid.  ``tests/oracle/rebatch.py`` keeps the
version that took rows, read each tuple's source through a callable, and
needed the sunk set twice — ``extra_contacted`` plus a tick-aware model.
Same algorithm, same pass order, same tie rules, same float association:
the two must return the **same tuple ids at the same total cost**, equal
and not approximately, whatever the prices.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refresh.base import RefreshPlan
from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.storage.row import Row
from tests.oracle import rebatch as oracle

# Sevenths and thirds: sums of three or more depend on their order.
prices = st.integers(min_value=0, max_value=60).map(lambda k: k / 7.0) | st.integers(
    min_value=1, max_value=30
).map(lambda k: k / 3.0)
# Few distinct widths, so that ascending-width orders have ties to break.
widths = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 2.5, 4.0, 10.0 / 3.0])


@st.composite
def instances(draw):
    sources = [f"s{k}" for k in range(draw(st.integers(2, 5)))]
    partial_map = st.dictionaries(st.sampled_from(sources), prices) | st.none()
    model = dict(
        setup=draw(prices),
        marginal=draw(prices),
        setup_by_source=draw(partial_map),
        marginal_by_source=draw(partial_map),
    )
    # Candidates in the order the harvest would list them: any order.
    tids = draw(st.permutations(range(1, draw(st.integers(0, 40)) + 1)))
    width_of = {tid: draw(widths) for tid in tids}
    source_of = {tid: draw(st.sampled_from(sources)) for tid in tids}
    planned = frozenset(draw(st.sets(st.sampled_from(tids)))) if tids else frozenset()
    # Any slack a feasible plan can have; often exactly what some of its
    # tuples remove, so that one eviction goes through and the next not.
    spare = draw(st.sets(st.sampled_from(sorted(planned)))) if planned else ()
    slack = draw(
        st.just(sum(width_of[tid] for tid in spare))
        | st.floats(0.0, 1.0).map(
            lambda share: share * sum(width_of[tid] for tid in planned)
        )
    )
    sunk = draw(st.sets(st.sampled_from(sources)))
    return model, list(tids), width_of, source_of, planned, slack, sunk


@given(instances())
@settings(max_examples=200, deadline=None)
def test_same_tids_and_total_cost_as_the_row_pass(instance):
    model, tids, width_of, source_of, planned, slack, sunk = instance
    plan = RefreshPlan(planned, 0.0)

    rows = [Row(tid, {}) for tid in tids]
    tick_model = oracle.TickCostModel(
        oracle.RowBatchedCostModel(**model), lambda row: source_of[row.tid], sunk
    )
    expected = oracle.rebatch_plan(
        plan, rows, width_of, slack, tick_model, extra_contacted=sunk
    )

    got = rebatch_plan(
        plan,
        tids,
        [width_of[tid] for tid in tids],
        source_of,
        slack,
        BatchedCostModel(**model),
        sunk=sunk,
    )
    assert got.tids == expected.tids
    assert got.total_cost == expected.total_cost
