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

import heapq
import math
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

from repro.core.refresh.base import RefreshPlan
from repro.core.refresh.costs import CostModel, PerSourceCostModel, UniformCostModel

__all__ = ["BatchedCostModel", "rebatch_plan"]

#: A removed width or a price difference this close to zero is rounding,
#: not a margin: prices like 15/7 + 33/7 against 48/7 differ only in the
#: last bit as floats, and no real plan saves less than this.
_TOLERANCE = 1e-12


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
    """

    setup: float = 5.0
    marginal: float = 1.0
    setup_by_source: Mapping[str, float] | None = None
    marginal_by_source: Mapping[str, float] | None = None

    def setup_for(self, source_id: str) -> float:
        """One source's per-message setup cost."""
        if self.setup_by_source is None:
            return self.setup
        return float(self.setup_by_source.get(source_id, self.setup))

    def marginal_for(self, source_id: str) -> float:
        """One source's per-tuple marginal cost."""
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
        return math.fsum(
            self.marginal_for(source_id) * count
            + (0.0 if source_id in sunk else self.setup_for(source_id))
            for source_id, count in counts.items()
        )

    def upper_bound_model(self, source_column: str = "source") -> CostModel:
        """A per-tuple cost model safe for the additive optimizers.

        ``setup + marginal`` over-charges every tuple as if it paid its own
        setup; the additive optimum under this bound costs at least the
        amortized optimum, so plans remain feasible (if conservative).
        With the same parameters for every source that is one constant;
        otherwise each source named in the maps gets its own, read
        through ``source_column``.
        """
        sources = set(self.setup_by_source or ()) | set(self.marginal_by_source or ())
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

    Strategy: greedily *evict* planned tuples, least width first, while
    the removed-width total stays above requirement, then — for each
    source already paying setup — *absorb* extra unplanned tuples, widest
    first, at pure marginal cost whenever one eviction elsewhere pays for
    it.  The result never violates the constraint and never costs more
    than the input plan under the amortized model.

    ``sunk`` names sources whose setup is already paid *outside* this plan
    — e.g. by other queries sharing the same refresh tick in the
    concurrent service.  They charge no setup here, and their tuples join
    the absorption candidates, which is what lets cross-query scheduling
    steer a plan onto sources the batch contacts anyway.

    One pass: a running removed-width sum and per-source counts price
    every move by its delta — a tuple costs its source's marginal, plus
    the setup when it opens (or, evicted, closes) a source not in
    ``sunk``.  Feasibility is monotone in width and the delta is the same
    for every member of a source, so each absorption only looks at the
    narrowest planned member of each source.  Prices are read once per
    source and the plan is priced once, by
    :meth:`BatchedCostModel.cost_of_counts`.
    """
    width_of = dict(zip(tids, widths))
    best = set(plan.tids)
    counts: dict[str, int] = {}
    for tid in best:
        counts[source_of[tid]] = counts.get(source_of[tid], 0) + 1
    sources = set(counts).union(map(source_of.__getitem__, width_of))
    marginal = {s: model.marginal_for(s) for s in sources}
    setup = {s: 0.0 if s in sunk else model.setup_for(s) for s in sources}

    def saving(source_id: str, count: int) -> float:
        """What dropping one of ``count`` tuples of a source saves."""
        return marginal[source_id] + (setup[source_id] if count == 1 else 0.0)

    def move(tid: int, step: int) -> None:
        """Add (``step`` 1) or drop (−1) one planned tuple."""
        source_id = source_of[tid]
        counts[source_id] = counts.get(source_id, 0) + step
        if not counts[source_id]:
            del counts[source_id]
        if step > 0:
            best.add(tid)
        else:
            best.remove(tid)

    removed = sum(width_of.get(tid, 0.0) for tid in best)
    required = removed - budget_slack

    # Eviction pass: least width contribution first — those are the
    # cheapest to give up feasibility-wise, letting the most evictions
    # (each saving at least a marginal, sometimes a whole setup) through.
    # Once one breaks the requirement every wider one does too.
    for tid in sorted(best & width_of.keys(), key=lambda t: (width_of[t], t)):
        source_id = source_of[tid]
        if removed - width_of[tid] + _TOLERANCE < required:
            break
        if saving(source_id, counts[source_id]) >= 0:
            move(tid, -1)
            removed -= width_of[tid]

    # Absorption pass: sources already contacted can contribute extra wide
    # tuples at marginal cost, potentially unlocking cross-source evictions.
    contacted = set(counts) | sunk
    extras = sorted(
        (
            tid
            for tid in tids
            if tid not in best and width_of[tid] > 0 and source_of[tid] in contacted
        ),
        key=lambda t: -width_of[t],
    )
    # Each source's evictable members, narrowest first.
    members: dict[str, list[tuple[float, int]]] = {}
    for tid in best & width_of.keys():
        members.setdefault(source_of[tid], []).append((width_of[tid], tid))
    for heap in members.values():
        heapq.heapify(heap)
    for extra in extras:
        extra_source = source_of[extra]
        gained = removed + width_of[extra]
        price = marginal[extra_source] + (
            0.0 if extra_source in counts else setup[extra_source]
        )
        # The narrowest member, over all sources, whose eviction keeps the
        # requirement and saves more than the absorption costs.
        pick: tuple[float, int] | None = None
        fits = False
        for source_id, heap in members.items():
            if not heap or gained - heap[0][0] + _TOLERANCE < required:
                continue
            fits = True
            count = counts[source_id] + (source_id == extra_source)
            cheaper = saving(source_id, count) - price > _TOLERANCE
            if cheaper and (pick is None or heap[0] < pick):
                pick = heap[0]
        if not fits:
            # Extras come widest first: no eviction fits beside a
            # narrower one either.
            break
        if pick is None:
            continue
        width, evicted = pick
        heapq.heappop(members[source_of[evicted]])
        heapq.heappush(members.setdefault(extra_source, []), (width_of[extra], extra))
        move(extra, 1)
        move(evicted, -1)
        removed = gained - width

    return RefreshPlan(frozenset(best), model.cost_of_counts(counts, sunk))
