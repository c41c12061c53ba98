"""The three-step TRAPP/AG query executor (paper §4).

Executing ``SELECT AGG(T.a) WITHIN R FROM T WHERE P`` proceeds as:

1. compute a bounded answer from the cached bounds alone; if its width
   already satisfies the precision constraint, stop;
2. run the aggregate's CHOOSE_REFRESH algorithm to pick a cheapest set of
   tuples and ask their sources to refresh them;
3. recompute the bounded answer over the now partially refreshed cache —
   guaranteed by construction to satisfy the constraint while the master
   and the clock stand still.

They do not always: a value-initiated refresh (§3) or a bound sync can
widen a tuple between steps 2 and 3.  So steps 2–3 are one loop: a
recheck that misses R with every planned tuple reached *plans again*
(:attr:`PlannedRefresh.replan`, at most :data:`MAX_PLAN_ROUNDS` plans);
one with tuples unreached is answered degraded.

The executor is agnostic to where refreshed values come from: callers
provide a :class:`RefreshProvider` (the replication layer's cache, or a
test stub) that collapses cached bounds to exact values in place.

Predicates referencing only exact columns are evaluated two-valued up
front (the §5 "no selection predicate" regime); predicates touching
bounded columns go through T+/T?/T− classification (§6).  The Appendix D
refinement — shrinking T? bounds when the predicate restricts the
aggregation column itself — is applied for the answer computation when
``refine_bounds`` is enabled.

There is one pipeline, and it reads only the table's columnar store
(:class:`~repro.storage.columnar.ColumnStore`):

* **Bound** (steps 1 and 3) — :func:`bounded_answer`.  Without a
  predicate the aggregate's ``bound_without_predicate`` sweeps the lo/hi
  endpoint arrays (§5).  With one — over bounded columns or not —
  :func:`repro.predicates.batch.classify_report` partitions the tuples
  into T+/T?/T− (§6; T? is simply empty when the predicate reads exact
  columns only) and hands over the partition as one ``(T+, T?)`` pair of
  sorted tuple-order positions; :class:`~repro.predicates.batch.
  ColumnarClassification` gathers the aggregation column there, applying
  the Appendix D refinement, and ``bound_with_classification``
  aggregates the arrays.  That is the only route choice, and it is read
  from the predicate.  GROUP BY and the iterative and relative drivers
  assemble their bounds through the same function.
* **Plan** (step 2).  The chooser harvests CHOOSE_REFRESH candidates
  straight from the column arrays — the whole table, or the same pair —
  and prices them through :func:`repro.core.refresh.base.candidate_costs`;
  rows are touched only to evaluate a bare cost callable on the
  candidates.

Classification runs once before the refresh and once after it, never in
between: the initial bound and CHOOSE_REFRESH share one partition, and a
re-plan reuses the recheck's.

The row-at-a-time pipeline this replaced lives on as the test oracle
``tests/oracle/row_executor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Protocol

import numpy as np

from repro.core.aggregates import get_aggregate
from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import (
    WIDTH_TOLERANCE,
    AbsolutePrecision,
    PrecisionConstraint,
    width_within,
)
from repro.core.refresh import CostFunc, RefreshPlan, get_choose_refresh, uniform_cost
from repro.errors import (
    ConstraintUnsatisfiableError,
    SourceUnavailableError,
    UnknownColumnError,
)
from repro.predicates.ast import Predicate, TruePredicate, columns_of
from repro.predicates.batch import ColumnarClassification, classify_report
from repro.storage.columnar import CandidateVectors
from repro.storage.table import Table

__all__ = [
    "WIDTH_TOLERANCE",
    "RefreshProvider",
    "NullRefreshProvider",
    "PlannedRefresh",
    "RefreshHook",
    "QueryExecutor",
    "execute_query",
    "drive_steps",
    "bounded_answer",
    "finish_answer",
    "table_positions",
    "MAX_PLAN_ROUNDS",
]

#: Refresh plans one statement (one GROUP BY group) may yield: every round
#: after the first answers a write or sync that landed under the last plan.
MAX_PLAN_ROUNDS = 16

# WIDTH_TOLERANCE / width_within (re-exported from repro.core.constraints)
# govern both the step-1 early exit and the step-3 guarantee check, so the
# two can never disagree about whether a width satisfies the constraint.


class RefreshProvider(Protocol):
    """Collapses cached bounds to exact master values on request."""

    def refresh(self, table: Table, tids: Iterable[int]) -> None:
        """Refresh the given tuples of ``table`` in place.

        After the call, every bounded column of each named tuple must hold
        an exact value (zero-width bound or plain number), and that value
        must lie inside the previously cached bound — TRAPP's core
        invariant (a bound always contains the master value).  The
        step-3 guarantee relies on it: a collapse inside the old bound
        can move tuples out of T?, never out of T+/T−.
        """
        ...


class NullRefreshProvider:
    """A provider that can never refresh (pure cached-data querying).

    Useful for the "imprecise mode" extreme and for tests; the executor
    raises :class:`ConstraintUnsatisfiableError` if a refresh is required.
    """

    def refresh(self, table: Table, tids: Iterable[int]) -> None:
        tids = list(tids)
        if tids:
            raise ConstraintUnsatisfiableError(
                f"query requires refreshing tuples {sorted(tids)} but no "
                "refresh provider is connected"
            )


@dataclass(slots=True)
class PlannedRefresh:
    """A refresh the optimizer chose, surfaced before it is applied.

    This is what :meth:`QueryExecutor.execute_steps` yields (and what a
    ``refresh_hook`` receives): everything an external scheduler needs to
    merge the refresh with other in-flight queries' plans.  Whoever handles
    it must refresh *at least* the tuples of an equivalent plan and answer
    with the effective :class:`RefreshPlan` — the tuple ids actually
    refreshed on this query's behalf plus the cost attributed to it.

    ``candidates``/``required_width`` are the §8.2 rebatching metadata,
    present only when the aggregate's answer width is a linear function of
    the refreshed tuples' widths (SUM): ``candidates`` are the harvested
    vectors CHOOSE_REFRESH planned on, by reference — each candidate's
    tuple id beside the answer width its refresh removes (a T? width
    being its §6.2 weight, the bound extended to zero) — and
    ``required_width`` is the width the plan must remove for the
    constraint to hold.  Whatever the chosen tuples remove beyond it is
    the slack :func:`repro.extensions.batching.rebatch_plan` may give back
    when it swaps expensive tuples for cheap same-source ones.

    ``replan`` marks a plan made because the previous round's recheck
    missed the constraint with every planned tuple reached — something
    moved the cached bounds between that yield and its ``send``.
    """

    table: Table
    plan: RefreshPlan
    max_width: float
    aggregate: str
    candidates: CandidateVectors | None = None
    required_width: float | None = None
    replan: bool = False

    @property
    def can_rebatch(self) -> bool:
        return self.candidates is not None


#: Intercepts a planned refresh.  The hook must apply the refreshes itself
#: (e.g. through a batching scheduler) and return the effective plan; a
#: ``None`` return means "applied exactly as requested".
RefreshHook = Callable[[PlannedRefresh], "RefreshPlan | None"]

#: Type of the generator returned by :meth:`QueryExecutor.execute_steps`.
ExecutionSteps = Generator[PlannedRefresh, RefreshPlan, BoundedAnswer]


def drive_steps(steps: ExecutionSteps, refresher: RefreshProvider) -> BoundedAnswer:
    """Serially drive an execution-steps generator to its answer.

    The reference driver for every generator speaking the
    :class:`PlannedRefresh` protocol (the executor's, the §7 join
    heuristic's, the §8.1 extension generators'): each planned refresh is
    applied immediately through ``refresher`` and echoed back as the
    effective plan — exactly what a hookless :meth:`QueryExecutor.execute`
    does, so serial answers are the fixed point concurrent drivers are
    tested against.
    """
    try:
        request = next(steps)
        while True:
            refresher.refresh(request.table, request.plan.tids)
            request = steps.send(request.plan)
    except StopIteration as stop:
        return stop.value


def bounded_answer(
    table: Table,
    spec,
    column: str | None,
    predicate: Predicate,
    refine: bool = True,
    within: "tuple[np.ndarray, np.ndarray] | None" = None,
):
    """The bounded answer from the column arrays, with its partition.

    Returns ``(bound, report)``; ``report`` is the
    :class:`~repro.predicates.batch.ClassifyReport` the bound was
    assembled from — its ``positions`` are the ``(T+, T?)`` pair
    CHOOSE_REFRESH plans on — and ``None`` when nothing was classified
    here: without a predicate (§5 versus §6, the pipeline's only route
    choice), or when the caller brought the pair.

    ``within`` restricts the answer to a ``(T+, T?)`` pair the caller
    already holds: GROUP BY classifies the table once
    (:func:`table_positions`) and passes each group's share of that
    pair.  Whoever holds positions holds them for one store layout only.
    """
    store = table.columns
    report = None
    if within is None:
        if isinstance(predicate, TruePredicate):
            return spec.bound_without_predicate(store, column), None
        report = classify_report(store, predicate)
        within = report.positions
    cc = ColumnarClassification.from_positions(
        store, within, column, predicate if refine else None
    )
    return spec.bound_with_classification(cc, column), report


def table_positions(
    table: Table, predicate: Predicate
) -> tuple[np.ndarray, np.ndarray]:
    """The table's ``(T+, T?)`` pair — all of it and nothing under
    :class:`TruePredicate` — for callers that split or walk it."""
    if isinstance(predicate, TruePredicate):
        return np.arange(len(table.columns)), np.arange(0)
    return classify_report(table.columns, predicate).positions


def finish_answer(
    final: Bound,
    max_width: float,
    plan: RefreshPlan,
    initial: Bound,
    rounds: int = 1,
    answer_type: type[BoundedAnswer] = BoundedAnswer,
    **fields,
) -> BoundedAnswer:
    """The last recheck's verdict, shared by every step generator.

    ``plan`` sums the ``rounds`` effective plans (failures: the last
    round's).  A ``final`` bound missing ``max_width`` is *degraded* when
    tuples went unreached — unless R demands exactness only the dead
    sources hold — and an optimizer bug when none did.
    """
    degraded = not width_within(final.width, max_width)
    if degraded:
        if not plan.unreached:
            raise ConstraintUnsatisfiableError(
                f"answer {final} (width {final.width:g}) still violates "
                f"constraint {max_width:g} after {rounds} refresh round(s) "
                "with every planned tuple refreshed; this indicates an "
                "optimizer bug"
            )
        # Bounded degradation (the paper's availability story): the
        # recomputed bound still contains the true value.
        if max_width <= 0.0:
            raise SourceUnavailableError(
                f"constraint WITHIN {max_width:g} requires exact values "
                f"held only by unreachable sources "
                f"{', '.join(plan.failed_sources) or '<unknown>'}",
                sources=plan.failed_sources,
            )
    return answer_type(
        bound=final,
        refreshed=plan.tids,
        refresh_cost=plan.total_cost,
        initial_bound=initial,
        degraded=degraded,
        unreachable_sources=plan.failed_sources,
        **fields,
    )


class QueryExecutor:
    """Executes bounded aggregation queries against one cached table."""

    def __init__(
        self,
        refresher: RefreshProvider | None = None,
        epsilon: float | None = None,
        force_exact: bool = False,
        refine_bounds: bool = True,
        refresh_hook: RefreshHook | None = None,
    ) -> None:
        self.refresher = refresher if refresher is not None else NullRefreshProvider()
        self.epsilon = epsilon
        self.force_exact = force_exact
        self.refine_bounds = refine_bounds
        #: When set, planned refreshes are handed to this hook instead of
        #: ``refresher.refresh`` — the entry point for schedulers that
        #: batch refreshes across queries.  ``None`` keeps the classic
        #: apply-immediately behavior.
        self.refresh_hook = refresh_hook

    # ------------------------------------------------------------------
    def execute(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        constraint: PrecisionConstraint | float,
        predicate: Predicate | None = None,
        cost: CostFunc = uniform_cost,
    ) -> BoundedAnswer:
        """Run the three-step pipeline and return a guaranteed answer."""
        steps = self.execute_steps(
            table, aggregate, column, constraint, predicate, cost
        )
        try:
            request = next(steps)
            while True:
                request = steps.send(self._apply_refresh(request))
        except StopIteration as stop:
            return stop.value

    def execute_steps(
        self,
        table: Table,
        aggregate: str,
        column: str | None,
        constraint: PrecisionConstraint | float,
        predicate: Predicate | None = None,
        cost: CostFunc = uniform_cost,
    ) -> ExecutionSteps:
        """The three-step pipeline as a resumable generator.

        Yields a :class:`PlannedRefresh` whenever step 2 decides a refresh
        is needed, suspending the query at exactly the point where the
        paper's architecture contacts the sources.  The driver (a plain
        :meth:`execute` call, or a cross-query scheduler) applies the
        refresh however it likes and sends back the effective
        :class:`RefreshPlan`; the generator then runs step 3 and returns
        the guaranteed :class:`BoundedAnswer` via ``StopIteration.value``
        (or yields a ``replan`` if something widened bounds under the plan).
        """
        if isinstance(constraint, (int, float)):
            constraint = AbsolutePrecision(float(constraint))
        predicate = predicate if predicate is not None else TruePredicate()
        for name in columns_of(predicate):
            table.schema.column(name)  # raises on unknown columns
        spec = get_aggregate(aggregate)
        if spec.needs_column and column is None:
            raise UnknownColumnError("<missing>", table.name)
        refine = self.refine_bounds and column is not None

        # Step 1: bound from the cache.
        initial, report = bounded_answer(table, spec, column, predicate, refine)
        window_fraction = None if report is None else report.window_fraction
        max_width = constraint.resolve(initial)
        if width_within(initial.width, max_width):
            return BoundedAnswer(
                bound=initial,
                initial_bound=initial,
                index_window_fraction=window_fraction,
            )

        # Steps 2 and 3, once unless the recheck misses R with every
        # planned tuple reached: CHOOSE_REFRESH over the partition the
        # bound came from, suspend, bound again.
        chooser = get_choose_refresh(
            spec.name, epsilon=self.epsilon, force_exact=self.force_exact
        )
        bound, spent, rounds = initial, RefreshPlan.empty(), 0
        while not width_within(bound.width, max_width) and rounds < MAX_PLAN_ROUNDS:
            if report is None:
                plan, candidates = chooser.without_predicate(
                    table, column, max_width, cost
                )
            else:
                plan, candidates = chooser.with_classification(
                    table, report.positions, column, max_width, cost,
                    predicate=predicate if refine else None,
                )
            if rounds and not plan.tids:
                break
            # A chooser hands back candidates when the final width is the
            # current width minus the widths the refreshed tuples remove
            # (SUM).
            required = None if candidates is None else bound.width - max_width
            effective = yield PlannedRefresh(
                table, plan, max_width, spec.name, candidates, required,
                replan=rounds > 0,
            )
            rounds += 1
            spent = spent.then(effective)
            bound, report = bounded_answer(table, spec, column, predicate, refine)
            if spent.unreached:
                break
        return finish_answer(
            bound, max_width, spent, initial, rounds,
            index_window_fraction=window_fraction,
        )

    def _apply_refresh(self, request: PlannedRefresh) -> RefreshPlan:
        """Default driver for a planned refresh: hook, else apply now."""
        if self.refresh_hook is not None:
            outcome = self.refresh_hook(request)
            return outcome if outcome is not None else request.plan
        self.refresher.refresh(request.table, request.plan.tids)
        return request.plan


def execute_query(
    table: Table,
    aggregate: str,
    column: str | None,
    constraint: PrecisionConstraint | float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
    refresher: RefreshProvider | None = None,
    epsilon: float | None = None,
    force_exact: bool = False,
    refine_bounds: bool = True,
    refresh_hook: RefreshHook | None = None,
) -> BoundedAnswer:
    """One-shot convenience wrapper around :class:`QueryExecutor`.

    Every executor option — including ``force_exact`` and
    ``refine_bounds`` — is forwarded, so the wrapper answers exactly as a
    hand-built executor would.
    """
    executor = QueryExecutor(
        refresher=refresher,
        epsilon=epsilon,
        force_exact=force_exact,
        refine_bounds=refine_bounds,
        refresh_hook=refresh_hook,
    )
    return executor.execute(table, aggregate, column, constraint, predicate, cost)
