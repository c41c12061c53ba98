"""§8.2 rebatching in one pass ≡ the row-taking probe loop, run exactly.

:func:`repro.extensions.batching.rebatch_plan` takes candidate tuple ids,
widths and a ``tid → source`` mapping, is told once (``sunk``) which
sources' setups are already paid, and prices every move by its delta
from running sums.  ``tests/oracle/rebatch.py`` keeps the version that
took rows, re-summed and re-priced every trial set whole, and
needed the sunk set twice — ``extra_contacted`` plus a tick-aware model.

The reference is that oracle in exact rational arithmetic: it is fed
:class:`~fractions.Fraction` widths, slack and prices, the served pass
their float images.  The two must return the **same tuple ids**, and the
served total cost must be the model's price of those ids.  The oracle
run in floats is no reference: it accepts ties that exist only in the
last bit, and can chain one into a real saving (the second example).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.refresh.base import RefreshPlan
from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.storage.row import Row
from tests.oracle import rebatch as oracle

# Sevenths and thirds: their float images round, so sums that are equal
# exactly often differ in the last bit.
prices = st.integers(min_value=0, max_value=60).map(lambda k: Fraction(k, 7)) | (
    st.integers(min_value=1, max_value=30).map(lambda k: Fraction(k, 3))
)
# Few distinct widths, so that ascending-width orders have ties to break.
widths = st.sampled_from(
    [Fraction(w) for w in ("0", "1/2", "1", "1", "5/2", "5/2", "4", "10/3")]
)


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
            lambda share: Fraction(share) * sum(width_of[tid] for tid in planned)
        )
    )
    sunk = draw(st.sets(st.sampled_from(sources)))
    return model, list(tids), width_of, source_of, planned, slack, sunk


def instance(setup, marginal, setup_by_source, sources, widths, planned, sunk):
    """A hand-written instance: tuple ids 1, 2, … with no slack."""
    tids = list(range(1, len(sources) + 1))
    model = dict(
        setup=Fraction(setup),
        marginal=Fraction(marginal),
        setup_by_source={s: Fraction(p) for s, p in setup_by_source.items()},
        marginal_by_source=None,
    )
    width_of = {tid: Fraction(w) for tid, w in zip(tids, widths)}
    return (
        model, tids, width_of, dict(zip(tids, sources)), frozenset(planned),
        Fraction(0), set(sunk),
    )


def as_float(value):
    if isinstance(value, dict):
        return {key: float(price) for key, price in value.items()}
    return None if value is None else float(value)


# Swapping tuple 3 for tuple 2 of the sunk source is a tie: 3/7 either
# way.  In floats (2/7 + 3/7) − 2/7 < 3/7, and the probe loop swapped.
@example(instance("0", "3/7", {"s0": "2/7"}, ["s0", "s0", "s1"], [0, "1/2", "1/2"], {3}, {"s0"}))
# The first swap of {3, 4} (15/7) toward the sunk source is a tie.  The
# float probe loop took it on rounding luck, and the second swap then
# dropped s1's setup: {1, 2} at 2.0.  Exactly, no single swap saves and
# {3, 4} stays.
@example(instance("2", "1", {"s1": "1/7"}, ["s0", "s0", "s1", "s1"], ["1/2"] * 4, {3, 4}, {"s0"}))
@given(instances())
@settings(max_examples=200, deadline=None)
def test_same_tids_and_total_cost_as_the_row_pass(instance):
    model, tids, width_of, source_of, planned, slack, sunk = instance
    plan = RefreshPlan(planned, 0.0)

    rows = [Row(tid, {}) for tid in tids]
    exact = oracle.TickCostModel(
        oracle.ExactCostModel(**model), lambda row: source_of[row.tid], sunk
    )
    expected = oracle.rebatch_plan(plan, rows, width_of, slack, exact, extra_contacted=sunk)

    served = BatchedCostModel(**{key: as_float(value) for key, value in model.items()})
    got = rebatch_plan(
        plan,
        tids,
        [float(width_of[tid]) for tid in tids],
        source_of,
        float(slack),
        served,
        sunk=sunk,
    )
    assert got.tids == expected.tids
    counts = Counter(source_of[tid] for tid in got.tids)
    assert got.total_cost == served.cost_of_counts(counts, sunk)
    assert math.isclose(got.total_cost, expected.total_cost, rel_tol=1e-12, abs_tol=1e-12)
