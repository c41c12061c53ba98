"""Refresh batching with per-source amortization (paper §8.2/§8.3).

The core optimizers assume set cost = sum of member costs, which "ignores
possible amortization due to batching multiple requests to the same
source".  This module models the amortized regime the paper sketches:
contacting a source costs a fixed ``setup`` once per batch, plus a smaller
``marginal`` per object — so refreshing many tuples from one source is
cheaper than the naive sum.

Two pieces are provided:

* :class:`BatchedCostModel` — prices a refresh *set*, given as tuples per
  source, under the amortized model (and hands the unmodified optimizers
  a conservative per-tuple model, :meth:`~BatchedCostModel.upper_bound_model`);
* :func:`rebatch_plan` — a post-pass over any
  :class:`~repro.core.refresh.base.RefreshPlan` that exploits amortization:
  once a source must be contacted anyway (its setup cost is sunk), pulling
  *additional* cheap wide tuples from the same source into the batch can
  shrink the answer at marginal cost, allowing the plan to drop expensive
  tuples from other sources while still meeting the width budget.

Both speak tuple ids, widths and source ids; neither sees a row.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

from repro.core.refresh.base import RefreshPlan
from repro.core.refresh.costs import CostModel, PerSourceCostModel, UniformCostModel

__all__ = ["BatchedCostModel", "rebatch_plan"]


@dataclass(slots=True)
class BatchedCostModel:
    """Per-source amortized refresh costs: ``setup + marginal · k``.

    ``setup``/``marginal`` are the defaults every source charges;
    ``setup_by_source``/``marginal_by_source`` override them per source
    id, modeling heterogeneous shards (a nearby replica's round trip is
    cheaper than a cross-region one).  The sharded-sources benchmark
    leans on exactly this: the planner steers refreshes toward cheap
    shards, and the scheduler's receipts price each shard's message with
    that shard's own parameters.

    ``calibrator`` replaces the manual maps with *measured* pricing: a
    :class:`~repro.replication.calibration.CostCalibrator` whose EWMA
    ``(setup, marginal)`` estimates — fitted from observed network round
    trips — take precedence for every source with enough observations;
    unmeasured sources fall back to the maps/defaults as priors.
    """

    setup: float = 5.0
    marginal: float = 1.0
    setup_by_source: Mapping[str, float] | None = None
    marginal_by_source: Mapping[str, float] | None = None
    calibrator: "object | None" = None

    def setup_for(self, source_id: str) -> float:
        """One source's per-message setup cost (measured, else configured)."""
        if self.calibrator is not None:
            measured = self.calibrator.setup_for(source_id)
            if measured is not None:
                return measured
        if self.setup_by_source is None:
            return self.setup
        return float(self.setup_by_source.get(source_id, self.setup))

    def marginal_for(self, source_id: str) -> float:
        """One source's per-tuple marginal cost (measured, else configured)."""
        if self.calibrator is not None:
            measured = self.calibrator.marginal_for(source_id)
            if measured is not None:
                return measured
        if self.marginal_by_source is None:
            return self.marginal
        return float(self.marginal_by_source.get(source_id, self.marginal))

    def batch_cost(self, source_id: str, n_tuples: int) -> float:
        """Price of one batched message: the §8.2 ``setup + marginal·k``."""
        return self.setup_for(source_id) + self.marginal_for(source_id) * n_tuples

    def cost_of_counts(
        self, counts: Mapping[str, int], sunk: Set[str] = frozenset()
    ) -> float:
        """The true amortized cost of refreshing ``counts[s]`` tuples from
        each source ``s`` together.

        Sources in ``sunk`` are contacted anyway — by another query of the
        same tick, say — so their setup is not this set's to pay.
        """
        # Set against set, built key by key: a float sum follows its
        # operands' iteration order, and tests/oracle/rebatch.py is matched
        # to the last bit.
        return sum(
            self.batch_cost(source_id, count) for source_id, count in counts.items()
        ) - sum(
            self.setup_for(source_id) for source_id in {s for s in counts} & sunk
        )

    def upper_bound_model(self, source_column: str = "source") -> CostModel:
        """A per-tuple cost model safe for the additive optimizers.

        ``setup + marginal`` over-charges every tuple as if it paid its own
        setup; the additive optimum under this bound costs at least the
        amortized optimum, so plans remain feasible (if conservative).
        With the same parameters for every source that is one constant;
        otherwise each source named in the maps or measured by the
        calibrator gets its own, read through ``source_column``.
        """
        sources = set(self.setup_by_source or ()) | set(self.marginal_by_source or ())
        if self.calibrator is not None:
            sources |= set(self.calibrator.estimates())
        if not sources:
            return UniformCostModel(self.setup + self.marginal)
        return PerSourceCostModel(
            {s: self.setup_for(s) + self.marginal_for(s) for s in sources},
            self.setup + self.marginal,
            source_column,
        )


def rebatch_plan(
    plan: RefreshPlan,
    tids: Sequence[int],
    widths: Sequence[float],
    source_of: Mapping[int, str],
    budget_slack: float,
    model: BatchedCostModel,
    sunk: Set[str] = frozenset(),
) -> RefreshPlan:
    """Improve a batch plan by exploiting per-source amortization.

    ``tids`` are the candidate tuples and ``widths`` — aligned with them —
    the answer-width contribution each one's refresh removes (the
    optimizer's knapsack weight); ``source_of`` maps every candidate and
    every planned tuple id to its source.  ``budget_slack`` is how much
    width the current plan removes *beyond* what the constraint needs
    (always ≥ 0 for a feasible plan).

    Strategy: greedily try to *evict* the most expensive tuples whose
    removal keeps the removed-width total above requirement, then — for
    each source already paying setup — *absorb* extra unplanned tuples at
    pure marginal cost whenever doing so lets a further eviction succeed.
    The result never violates the constraint and never costs more than the
    input plan under the amortized model.

    ``sunk`` names sources whose setup is already paid *outside* this plan
    — e.g. by other queries sharing the same refresh tick in the
    concurrent service.  They charge no setup here, and their tuples join
    the absorption candidates, which is what lets cross-query scheduling
    steer a plan onto sources the batch contacts anyway.
    """
    width_of = dict(zip(tids, widths))
    chosen = {tid for tid in plan.tids}

    def amortized_cost(members: set[int]) -> float:
        counts: dict[str, int] = {}
        for tid in members:
            source_id = source_of[tid]
            counts[source_id] = counts.get(source_id, 0) + 1
        return model.cost_of_counts(counts, sunk)

    def removed_width(members: set[int]) -> float:
        return sum(width_of.get(tid, 0.0) for tid in members)

    required = removed_width(chosen) - budget_slack
    best = set(chosen)
    best_cost = amortized_cost(best)
    # One ascending-width ordering serves every greedy pass below (the
    # planner's sorted-width orderings applied to rebatching): filtering
    # it by membership replaces the per-probe re-sort the absorption loop
    # used to pay, and keeps every pass deterministic.
    ascending = sorted(width_of, key=lambda t: (width_of[t], t))

    # Eviction pass: drop tuples while the width requirement holds.
    # Least width contribution first — those are the cheapest to give up
    # feasibility-wise, letting the most evictions (each saving at least a
    # marginal, sometimes a whole setup) go through.
    for tid in ascending:
        if tid not in chosen:
            continue
        trial = best - {tid}
        if removed_width(trial) + 1e-12 >= required:
            cost = amortized_cost(trial)
            if cost <= best_cost:
                best = trial
                best_cost = cost

    # Absorption pass: sources already contacted can contribute extra wide
    # tuples at marginal cost, potentially unlocking cross-source evictions.
    contacted = {source_of[tid] for tid in best} | sunk
    extras = [
        tid
        for tid in tids
        if tid not in best and width_of[tid] > 0 and source_of[tid] in contacted
    ]
    extras.sort(key=lambda t: -width_of[t])
    for extra in extras:
        trial = best | {extra}
        # Try to pay for the absorption by evicting somewhere else.
        for tid in ascending:
            if tid == extra or tid not in trial:
                continue
            candidate = trial - {tid}
            if removed_width(candidate) + 1e-12 >= required:
                cost = amortized_cost(candidate)
                if cost < best_cost:
                    best = candidate
                    best_cost = cost
                    break

    return RefreshPlan(frozenset(best), best_cost)
