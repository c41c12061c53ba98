"""rebatch_plan edge cases.

Covers the degenerate inputs the cross-query scheduler can hand the
rebatcher: an empty plan, a plan whose tuples all come from one source,
and a setup cost dwarfing the whole naive plan; and the size it must
handle in one pass.
"""

from __future__ import annotations

import random

import pytest

from repro.core.refresh.base import RefreshPlan
from repro.extensions.batching import BatchedCostModel, rebatch_plan


def candidates(sources: list[str]):
    """Tuple ids 1, 2, … and the ``tid → source`` mapping placing them."""
    source_of = dict(enumerate(sources, start=1))
    return list(source_of), source_of


# ----------------------------------------------------------------------
def test_empty_plan_stays_empty():
    tids, source_of = candidates(["a", "a", "b"])
    model = BatchedCostModel(setup=5.0, marginal=1.0)
    result = rebatch_plan(RefreshPlan.empty(), tids, [10.0] * 3, source_of, 0.0, model)
    assert result.tids == frozenset()
    assert result.total_cost == 0.0


def test_empty_candidate_set():
    model = BatchedCostModel(setup=5.0, marginal=1.0)
    result = rebatch_plan(RefreshPlan.empty(), [], [], {}, 0.0, model)
    assert result.tids == frozenset()
    assert result.total_cost == 0.0


def test_all_tuples_from_one_source_without_slack():
    """One source, no slack: nothing can be evicted or improved — the
    plan survives unchanged at the amortized single-batch price."""
    tids, source_of = candidates(["a"] * 4)
    model = BatchedCostModel(setup=7.0, marginal=2.0)
    result = rebatch_plan(
        RefreshPlan(frozenset(tids), 0.0), tids, [10.0] * 4, source_of, 0.0, model
    )
    assert result.tids == frozenset(tids)
    assert result.total_cost == pytest.approx(7.0 + 2.0 * 4)


def test_one_source_with_slack_evicts_but_keeps_requirement():
    """Slack worth one tuple lets exactly one eviction through; the
    removed width never drops below the requirement."""
    tids, source_of = candidates(["a"] * 4)
    model = BatchedCostModel(setup=7.0, marginal=2.0)
    result = rebatch_plan(
        RefreshPlan(frozenset(tids), 0.0), tids, [10.0] * 4, source_of, 10.0, model
    )
    assert len(result.tids) == 3
    assert result.tids < frozenset(tids)
    assert 10.0 * len(result.tids) >= 10.0 * 4 - 10.0 - 1e-9
    assert result.total_cost == pytest.approx(7.0 + 2.0 * 3)


def test_setup_larger_than_entire_naive_plan_consolidates_sources():
    """A setup dwarfing every marginal makes source count the whole cost:
    with enough slack the rebatcher must abandon the minority source."""
    tids, source_of = candidates(["a", "a", "a", "b"])
    # setup = 1000 > naive plan total (4 tuples x (setup'+marginal) under
    # any per-tuple upper bound the additive optimizers used).
    model = BatchedCostModel(setup=1000.0, marginal=1.0)
    result = rebatch_plan(
        RefreshPlan(frozenset(tids), 0.0), tids, [10.0] * 4, source_of, 10.0, model
    )
    sources = {source_of[tid] for tid in result.tids}
    assert sources == {"a"}, "the lone source-b tuple should be evicted"
    assert result.total_cost == pytest.approx(1000.0 + 3.0)
    # And the width requirement still holds.
    assert 10.0 * len(result.tids) >= 10.0 * 4 - 10.0 - 1e-9


def test_result_never_costs_more_than_input():
    tids, source_of = candidates(["a", "b", "a", "b", "a"])
    widths = [float(tid) for tid in tids]
    model = BatchedCostModel(setup=4.0, marginal=1.5)
    before = model.cost_of_counts({"a": 3, "b": 2})
    result = rebatch_plan(
        RefreshPlan(frozenset(tids), before), tids, widths, source_of, 2.0, model
    )
    assert result.total_cost <= before + 1e-9


def test_extra_contacted_enables_cross_plan_absorption():
    """Sources other in-flight queries already pay for charge no setup
    and join the absorption candidates (the cross-query scheduler's
    hook)."""
    tids, source_of = candidates(["a", "b"])
    a_tid, b_tid = tids
    model = BatchedCostModel(setup=50.0, marginal=1.0)
    plan = RefreshPlan(frozenset({b_tid}), 51.0)
    # Without the hint, source a's tuple is not a candidate: no change.
    unaware = rebatch_plan(plan, tids, [10.0, 10.0], source_of, 0.0, model)
    assert unaware.tids == frozenset({b_tid})
    # With it, the plan migrates to the sunk source.
    aware = rebatch_plan(plan, tids, [10.0, 10.0], source_of, 0.0, model, sunk={"a"})
    assert aware.tids == frozenset({a_tid})
    assert aware.total_cost == pytest.approx(1.0)


def test_one_pass_prices_the_plan_once():
    """A 45-tuple plan over 300 candidates on 4 sources, every source
    contacted: each of the 255 unplanned tuples is an absorption
    candidate.  The pass prices moves by their deltas and the plan once;
    re-pricing every trial set, as the probe loop did, calls
    ``cost_of_counts`` thousands of times on this instance."""

    class CountingModel(BatchedCostModel):
        calls = 0

        def cost_of_counts(self, counts, sunk=frozenset()):
            CountingModel.calls += 1
            return BatchedCostModel.cost_of_counts(self, counts, sunk)

    rng = random.Random(26)
    tids, source_of = candidates([f"s{k % 4}" for k in range(300)])
    widths = [rng.choice([0.5, 1.0, 2.0, 2.5, 4.0]) for _ in tids]
    planned = frozenset(rng.sample(tids, 45))
    assert {source_of[tid] for tid in planned} == {"s0", "s1", "s2", "s3"}
    model = CountingModel(setup=5.0, marginal=1.0, setup_by_source={"s3": 40.0})
    width_of = dict(zip(tids, widths))
    removed = sum(width_of[tid] for tid in planned)

    result = rebatch_plan(RefreshPlan(planned, 0.0), tids, widths, source_of, 3.0, model)
    assert CountingModel.calls == 1
    assert sum(width_of[tid] for tid in result.tids) >= removed - 3.0 - 1e-9
    counts: dict[str, int] = {}
    for tid in planned:
        counts[source_of[tid]] = counts.get(source_of[tid], 0) + 1
    assert result.total_cost <= BatchedCostModel.cost_of_counts(model, counts)
