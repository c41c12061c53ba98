"""The row-taking §8.2 rebatch pass ``repro.extensions.batching`` used to
carry, with the row methods of its cost model and the scheduler's
tick-aware subclass.

Every candidate is a :class:`Row`, a tuple's source is
``model.source_of(row)``, every trial set is re-summed, and re-priced
whole by ``cost_of_set(rows)`` — O(extras × candidates × plan) — and
"these sources' setups are sunk" is said twice: ``extra_contacted`` to
:func:`rebatch_plan`, and a :class:`TickCostModel` around the model.

Function bodies are as they were in ``src/``, except that they run in
whatever arithmetic they are handed.  Given :class:`~fractions.Fraction`
widths, slack and prices (an :class:`ExactCostModel`) every comparison is
exact.  That is the reference: run in floats, this pass accepts
"improvements" that exist only in the last bit — ``5/7 − 2/7 < 3/7`` —
and its rounding luck can chain such a tie into a real saving the exact
algorithm never finds.  ``tests/property/test_rebatch_lockstep.py`` holds
the served one-pass :func:`repro.extensions.batching.rebatch_plan`, fed
the float images, to the same tuple ids as this pass run exactly.

Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.refresh.base import RefreshPlan
from repro.extensions.batching import BatchedCostModel
from repro.storage.row import Row

SourceOf = Callable[[Row], str]

#: The served pass's feasibility tolerance, as a number that adds exactly
#: to a :class:`Fraction` (and as itself to a float).
_TOLERANCE = Fraction(1e-12)


@dataclass(slots=True)
class RowBatchedCostModel(BatchedCostModel):
    """:class:`BatchedCostModel` with the row methods it had."""

    source_of: SourceOf = field(default=lambda row: str(row.get("source", "")))

    def cost_of_set(self, rows: Iterable[Row]) -> float:
        """The true amortized cost of refreshing ``rows`` together."""
        per_source: dict[str, int] = {}
        for row in rows:
            per_source[self.source_of(row)] = per_source.get(self.source_of(row), 0) + 1
        return sum(
            self.batch_cost(source_id, count)
            for source_id, count in per_source.items()
        )

    def naive_upper_bound(self, row: Row) -> float:
        """A per-tuple cost safe for the additive optimizers.

        ``setup + marginal`` over-charges every tuple as if it paid its own
        setup; the additive optimum under this bound costs at least the
        amortized optimum, so plans remain feasible (if conservative).
        """
        source_id = self.source_of(row)
        return self.setup_for(source_id) + self.marginal_for(source_id)


@dataclass(slots=True)
class ExactCostModel(RowBatchedCostModel):
    """Prices as given: :class:`BatchedCostModel` casts map values with
    ``float()``, which would turn :class:`Fraction` prices into floats."""

    def setup_for(self, source_id: str):
        return (self.setup_by_source or {}).get(source_id, self.setup)

    def marginal_for(self, source_id: str):
        return (self.marginal_by_source or {}).get(source_id, self.marginal)


class TickCostModel(RowBatchedCostModel):
    """Amortized costs as seen mid-tick: sunk setups are free.

    Per-source pricing *delegates* to the wrapped model — preserving
    per-source (per-shard) overrides, calibrated estimates, and
    group-projected minimum pricing alike — except sources some other
    query in the same tick already contacts charge no setup, which is
    exactly what makes pulling tuples from those sources attractive
    during cross-query rebatching.
    """

    def __init__(
        self,
        model: BatchedCostModel,
        source_of: SourceOf,
        contacted: set[str],
    ) -> None:
        super().__init__(
            setup=model.setup, marginal=model.marginal, source_of=source_of
        )
        self._base = model
        self._contacted = contacted

    def setup_for(self, source_id: str) -> float:
        return self._base.setup_for(source_id)

    def marginal_for(self, source_id: str) -> float:
        return self._base.marginal_for(source_id)

    def cost_of_set(self, rows: Iterable[Row]) -> float:
        rows = list(rows)
        sunk = {self.source_of(row) for row in rows} & self._contacted
        return super().cost_of_set(rows) - sum(
            self.setup_for(source_id) for source_id in sunk
        )


def rebatch_plan(
    plan: RefreshPlan,
    all_rows: Sequence[Row],
    widths: Mapping[int, float],
    budget_slack: float,
    model: RowBatchedCostModel,
    extra_contacted: "set[str] | None" = None,
) -> RefreshPlan:
    """Improve a batch plan by exploiting per-source amortization.

    ``widths`` maps tuple id → the answer-width contribution its refresh
    removes (the optimizer's knapsack weight); ``budget_slack`` is how much
    width the current plan removes *beyond* what the constraint needs
    (always ≥ 0 for a feasible plan).

    Strategy: greedily try to *evict* the most expensive tuples whose
    removal keeps the removed-width total above requirement, then — for
    each source already paying setup — *absorb* extra unplanned tuples at
    pure marginal cost whenever doing so lets a further eviction succeed.
    The result never violates the constraint and never costs more than the
    input plan under the amortized model.

    ``extra_contacted`` names sources whose setup is already paid *outside*
    this plan — e.g. by other queries sharing the same refresh tick in the
    concurrent service.  Their tuples join the absorption candidates, which
    is what lets cross-query scheduling steer a plan onto sources the batch
    contacts anyway (``model`` should then price those setups as sunk, as
    :class:`TickCostModel` does).
    """
    by_tid = {row.tid: row for row in all_rows}
    chosen = {tid for tid in plan.tids}

    def amortized_cost(tids: set[int]) -> float:
        return model.cost_of_set(by_tid[tid] for tid in tids)

    def removed_width(tids: set[int]) -> float:
        return sum(widths.get(tid, 0) for tid in tids)

    required = removed_width(chosen) - budget_slack
    best = set(chosen)
    best_cost = amortized_cost(best)
    # One ascending-width ordering serves every greedy pass below (the
    # planner's sorted-width orderings applied to rebatching): filtering
    # it by membership replaces the per-probe re-sort the absorption loop
    # used to pay, and keeps every pass deterministic.
    ascending = sorted(by_tid, key=lambda t: (widths.get(t, 0), t))

    # Eviction pass: drop tuples while the width requirement holds.
    # Least width contribution first — those are the cheapest to give up
    # feasibility-wise, letting the most evictions (each saving at least a
    # marginal, sometimes a whole setup) go through.
    for tid in ascending:
        if tid not in chosen:
            continue
        trial = best - {tid}
        if removed_width(trial) + _TOLERANCE >= required:
            cost = amortized_cost(trial)
            if cost <= best_cost:
                best = trial
                best_cost = cost

    # Absorption pass: sources already contacted can contribute extra wide
    # tuples at marginal cost, potentially unlocking cross-source evictions.
    contacted = {model.source_of(by_tid[tid]) for tid in best}
    if extra_contacted:
        contacted |= set(extra_contacted)
    extras = [
        row
        for row in all_rows
        if row.tid not in best
        and widths.get(row.tid, 0) > 0
        and model.source_of(row) in contacted
    ]
    extras.sort(key=lambda r: -widths.get(r.tid, 0))
    for extra in extras:
        trial = best | {extra.tid}
        # Try to pay for the absorption by evicting somewhere else.
        for tid in ascending:
            if tid == extra.tid or tid not in trial:
                continue
            candidate = trial - {tid}
            if removed_width(candidate) + _TOLERANCE >= required:
                cost = amortized_cost(candidate)
                if cost < best_cost:
                    best = candidate
                    best_cost = cost
                    break

    return RefreshPlan(frozenset(best), best_cost)
