"""The three-step TRAPP/AG query executor (paper §4) and its refresh loop.

Executing ``SELECT AGG(T.a) WITHIN R FROM T WHERE P`` proceeds as:

1. compute a bounded answer from the cached bounds alone; if its width
   already satisfies the precision constraint, stop;
2. run the aggregate's CHOOSE_REFRESH algorithm to pick a cheapest set of
   tuples and ask their sources to refresh them;
3. recompute the bounded answer over the now partially refreshed cache —
   guaranteed by construction to satisfy the constraint while the master
   and the clock stand still.

They do not always: a value-initiated refresh (§3) or a bound sync can
widen a tuple between steps 2 and 3.  So steps 2–3 are one loop,
:func:`refresh_steps`, which every statement class runs (a table, a
GROUP BY group, TOP-N, a §7 join): a recheck that misses R plans again,
one with tuples unreached is answered degraded.  GROUP BY runs one loop
per group, in lock step (:func:`lockstep_steps`), so each round is one
request for all of them.  It resolves R
from every bound, so §8.1's relative constraints are its ordinary case;
§8.2's one-tuple rounds are its other chooser (:func:`iterative_steps`).

A single-table statement is :func:`table_steps`, a generator that
yields each refresh it plans.  It is agnostic to where refreshed values
come from: its driver applies them — :func:`drive_steps`, the one serial
driver, through a :class:`RefreshProvider` (the replication layer's
cache, or a test stub) that collapses cached bounds to exact values in
place, or the service's refresh scheduler.

Predicates referencing only exact columns are evaluated two-valued up
front (the §5 "no selection predicate" regime); predicates touching
bounded columns go through T+/T?/T− classification (§6).  The Appendix D
refinement — shrinking T? bounds when the predicate restricts the
aggregation column itself — is always applied, to the answer and to the
plan alike.

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
  from the predicate.  GROUP BY assembles each group's bound through the
  same function.
* **Plan** (step 2).  The chooser harvests CHOOSE_REFRESH candidates
  straight from the column arrays — the whole table, or the same pair —
  and prices them through :func:`repro.core.refresh.base.candidate_costs`;
  rows are touched only to evaluate a bare cost callable on the
  candidates.

Classification runs once per bound, never in between: a bound and the
plan made from it share one partition.

The row-at-a-time pipeline this replaced lives on as the test oracle
``tests/oracle/row_executor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Protocol, Sequence

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
from repro.core.refresh.base import candidate_costs
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
    "table_steps",
    "iterative_steps",
    "refresh_steps",
    "lockstep_steps",
    "drive_steps",
    "bounded_answer",
    "finish_answer",
    "table_positions",
    "MAX_PLAN_ROUNDS",
]

#: Batch plans one statement (one GROUP BY group) may yield: every plan
#: after the first answers a write or sync that landed under the last.
#: One-tuple rounds are not counted; the table bounds them.
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

    Useful for the "imprecise mode" extreme and for tests: driven through
    it, a statement that needs a refresh raises
    :class:`ConstraintUnsatisfiableError`.
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

    This is what every step generator yields: everything an external
    scheduler needs to merge the refresh with other in-flight queries'
    plans.  Whoever handles it must refresh *at least* the tuples of an
    equivalent plan and answer with the effective :class:`RefreshPlan` —
    the tuple ids actually refreshed on this query's behalf plus the cost
    attributed to it.

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


#: Type of the generator every statement class returns.
ExecutionSteps = Generator[PlannedRefresh, RefreshPlan, BoundedAnswer]


def drive_steps(steps: ExecutionSteps, refresher: RefreshProvider) -> BoundedAnswer:
    """Serially drive an execution-steps generator to its answer.

    The reference driver for every generator speaking the
    :class:`PlannedRefresh` protocol: each planned refresh is applied
    immediately through ``refresher`` and echoed back as the effective
    plan, so serial answers are the fixed point concurrent drivers are
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
    cc = ColumnarClassification.from_positions(store, within, column, predicate)
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
    sources hold — and an error when none did.
    """
    degraded = not width_within(final.width, max_width)
    if degraded:
        if not plan.unreached:
            raise ConstraintUnsatisfiableError(
                f"answer {final} (width {final.width:g}) still violates "
                f"constraint {max_width:g} after {rounds} refresh round(s) "
                "with every planned tuple refreshed"
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


def refresh_steps(
    bound: Callable[[], Bound | None],
    constraint: PrecisionConstraint | float,
    plan: Callable[[Bound, float], PlannedRefresh] | None = None,
    pick: Callable[[Bound, float, dict], PlannedRefresh | None] | None = None,
    answer_type: type[BoundedAnswer] = BoundedAnswer,
    fields: Callable[[], dict] = dict,
) -> ExecutionSteps:
    """The refresh loop every statement runs: plan, suspend, bound again.

    ``bound()`` is the statement's bounded answer as the cache stands
    (``None`` once there is nothing left to bound, a GROUP BY group whose
    tuples all left: the loop returns ``None``).  Each bound resolves
    ``constraint`` afresh; within it, the loop stops.  Otherwise it
    yields a :class:`PlannedRefresh` and bounds again on ``send``:

    * a *batch* round yields ``plan(bound, R)``, CHOOSE_REFRESH for R.
      A recheck misses only if something moved under the plan, and the
      next batch plan is a ``replan``; an empty re-plan, or a miss after
      :data:`MAX_PLAN_ROUNDS` batch plans, ends the loop;
    * a *one-tuple* round (§8.2) yields ``pick(bound, R, requested)``:
      the best tuple not in ``requested`` (the statement's tuple ids so
      far, per table), or ``None`` to end the loop.  Never a ``replan``;
      the table bounds them.  Taken without a ``plan`` (the §7 join,
      :func:`iterative_steps`) and while ``constraint.provisional``.

    A round with tuples unreached ends the loop too.  The answer is
    :func:`finish_answer`'s verdict on the last bound, an ``answer_type``
    carrying ``fields()``.
    """
    if isinstance(constraint, (int, float)):
        constraint = AbsolutePrecision(float(constraint))
    initial = current = bound()
    spent, rounds, plans, missed = RefreshPlan.empty(), 0, 0, False
    requested: dict[Table, set[int]] = {}
    while current is not None:
        max_width = constraint.resolve(current)
        request = None
        if width_within(current.width, max_width) or spent.unreached:
            pass  # answered, or degraded
        elif plan is None or (pick is not None and constraint.provisional(current)):
            request, missed = pick(current, max_width, requested), False
        elif plans < MAX_PLAN_ROUNDS:
            request = plan(current, max_width)
            request.replan, missed = missed, True
            plans += 1
            if rounds and not request.plan.tids:
                request = None  # an empty re-plan
        if request is None:
            return finish_answer(
                current, max_width, spent, initial, rounds, answer_type, **fields()
            )
        effective = yield request
        rounds += 1
        spent = spent.then(effective)
        requested.setdefault(request.table, set()).update(
            request.plan.tids, effective.tids
        )
        current = bound()
    return None


def lockstep_steps(
    loops: Sequence[ExecutionSteps],
    owner: Callable[[Iterable[int]], list[int | None]],
) -> Generator[PlannedRefresh, RefreshPlan, tuple[list, RefreshPlan]]:
    """Several :func:`refresh_steps` loops over one table, one request a
    round.

    Every loop still running plans; their plans must be disjoint (GROUP BY
    groups partition the table).  The round yields one
    :class:`PlannedRefresh`, the union of those plans, and splits the
    effective plan sent back by ``owner``, which names the loop that owns
    each tuple id (``None``: no loop): tuple ids and unreached ones go to
    their owner, if it is in the round, and the cost goes out in
    proportion to each loop's planned cost.  Returns each loop's answer,
    in order, and the sum of the effective plans the driver sent.
    """
    answers: list = [None] * len(loops)
    requests: dict[int, PlannedRefresh] = {}

    def advance(i: int, effective: RefreshPlan | None) -> None:
        try:
            requests[i] = loops[i].send(effective)
        except StopIteration as stop:
            answers[i] = stop.value
            requests.pop(i, None)

    for i in range(len(loops)):
        advance(i, None)
    spent = RefreshPlan.empty()
    while requests:
        round_ = dict(requests)
        planned = sum(request.plan.total_cost for request in round_.values())
        first = next(iter(round_.values()))
        effective = yield PlannedRefresh(
            first.table,
            RefreshPlan(
                frozenset().union(*(r.plan.tids for r in round_.values())), planned
            ),
            first.max_width,
            first.aggregate,
            replan=any(request.replan for request in round_.values()),
        )
        spent = spent.then(effective)
        parts = {i: (set(), set()) for i in round_}
        for n, ids in enumerate((sorted(effective.tids), sorted(effective.unreached))):
            for tid, i in zip(ids, owner(ids)):
                if i in parts:
                    parts[i][n].add(tid)
        for i, request in round_.items():
            tids, unreached = parts[i]
            share = (
                request.plan.total_cost * (effective.total_cost / planned)
                if planned
                else effective.total_cost / len(round_)
            )
            failed = effective.failed_sources if unreached else ()
            advance(
                i, RefreshPlan(frozenset(tids), share, frozenset(unreached), failed)
            )
    return answers, spent


class _TableStatement:
    """``AGG(column) FROM table WHERE predicate`` for :func:`refresh_steps`.

    Its bound is steps 1 and 3; its batch plan is step 2's CHOOSE_REFRESH
    and its one-tuple pick §8.2's greedy choice, both over the partition
    the last bound came from.
    """

    def __init__(
        self, table: Table, aggregate: str, column: str | None,
        predicate: Predicate | None, cost: CostFunc,
    ) -> None:
        self.predicate = predicate if predicate is not None else TruePredicate()
        for name in columns_of(self.predicate):
            table.schema.column(name)  # raises on unknown columns
        self.spec = get_aggregate(aggregate)
        if self.spec.needs_column and column is None:
            raise UnknownColumnError("<missing>", table.name)
        self.chooser = get_choose_refresh(self.spec.name)
        self.table, self.column, self.cost = table, column, cost
        self.report = self.answer_fields = None

    def bound(self) -> Bound:
        bound, self.report = bounded_answer(
            self.table, self.spec, self.column, self.predicate
        )
        if self.answer_fields is None:  # step 1's partition is the one reported
            fraction = None if self.report is None else self.report.window_fraction
            self.answer_fields = {"index_window_fraction": fraction}
        return bound

    def plan(self, bound: Bound, max_width: float) -> PlannedRefresh:
        if self.report is None:
            plan, candidates = self.chooser.without_predicate(
                self.table, self.column, max_width, self.cost
            )
        else:
            plan, candidates = self.chooser.with_classification(
                self.table, self.report.positions, self.column, max_width,
                self.cost, predicate=self.predicate,
            )
        # A chooser hands back candidates when the final width is the
        # current width minus the widths the refreshed tuples remove (SUM).
        required = None if candidates is None else bound.width - max_width
        return PlannedRefresh(
            self.table, plan, max_width, self.spec.name, candidates, required
        )

    def pick(
        self, bound: Bound, max_width: float, requested: dict[Table, set[int]]
    ) -> PlannedRefresh | None:
        """The unrequested tuple with the best benefit/cost score.

        Candidates are the T+ then the T? tuples of the last bound's
        partition (every tuple, all in T+, when there was no predicate to
        classify), priced together.
        """
        store = self.table.columns
        if self.report is None:  # no predicate: every tuple is in T+
            positions = np.arange(len(store)), np.arange(0)
        else:
            positions = self.report.positions
        at, n_plus = np.concatenate(positions), len(positions[0])
        if self.column is None:
            lo = hi = [0.0] * len(at)  # COUNT scores membership only
        else:
            lo, hi = (end[at].tolist() for end in store.endpoints(self.column))
        costs = candidate_costs(self.table, self.cost, at).tolist()
        tids = store.sorted_tids()[at].tolist()
        asked = requested.get(self.table, ())

        best = None
        best_score = 0.0
        for k, tid in enumerate(tids):
            score = _benefit(
                lo[k], hi[k], self.spec.name, k >= n_plus, bound, max_width
            )
            if score <= 0 or tid in asked:
                continue
            ratio = score / max(costs[k], 1e-12)
            if best is None or ratio > best_score:
                best = k
                best_score = ratio
        if best is None:
            return None
        plan = RefreshPlan(frozenset((tids[best],)), costs[best])
        return PlannedRefresh(self.table, plan, max_width, self.spec.name)


def _benefit(
    lo: float,
    hi: float,
    aggregate: str,
    uncertain: bool,
    bound: Bound,
    max_width: float,
) -> float:
    """A tuple's uncertainty contribution: for MIN/MAX the overlap with
    the contested region, for SUM/AVG the (zero-extended) bound width,
    for COUNT T? membership."""
    if aggregate == "COUNT":
        return 1.0 if uncertain else 0.0
    if aggregate in ("SUM", "AVG"):
        if uncertain:  # the bound extended to zero, plus its membership
            return max(hi, 0.0) - min(lo, 0.0) + 1.0
        return hi - lo
    if aggregate == "MIN":
        # Contribution to the contested region [lo_A, lo_A + width).
        contested_top = bound.lo + max(bound.width - max_width, 0.0)
        overlap = max(0.0, min(hi, contested_top) - lo)
        return overlap if hi > lo else 0.0
    if aggregate == "MAX":
        contested_bottom = bound.hi - max(bound.width - max_width, 0.0)
        overlap = max(0.0, hi - max(lo, contested_bottom))
        return overlap if hi > lo else 0.0
    # Unknown aggregate: fall back to raw width.
    return hi - lo


def table_steps(
    table: Table,
    aggregate: str,
    column: str | None,
    constraint: PrecisionConstraint | float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """The three-step pipeline for ``AGG(column) FROM table WHERE
    predicate`` as a resumable generator.

    Yields a :class:`PlannedRefresh` whenever step 2 decides a refresh
    is needed, suspending the query at exactly the point where the
    paper's architecture contacts the sources.  The driver
    (:func:`drive_steps`, or a cross-query scheduler) applies the
    refresh however it likes and sends back the effective
    :class:`RefreshPlan`; the generator then runs step 3 and returns
    the guaranteed :class:`BoundedAnswer` via ``StopIteration.value``
    (or yields a ``replan`` if something widened bounds under the plan).
    A relative constraint whose bound straddles zero takes one-tuple
    rounds until it does not (§8.1).
    """
    statement = _TableStatement(table, aggregate, column, predicate, cost)
    return (
        yield from refresh_steps(
            statement.bound, constraint, statement.plan, statement.pick,
            fields=lambda: statement.answer_fields,
        )
    )


def iterative_steps(
    table: Table,
    aggregate: str,
    column: str | None,
    constraint: PrecisionConstraint | float,
    predicate: Predicate | None = None,
    cost: CostFunc = uniform_cost,
) -> ExecutionSteps:
    """§8.2's iterative CHOOSE_REFRESH: one tuple per round.

    Each round refreshes the tuple with the widest uncertainty per unit
    cost, stopping as soon as the actual values meet the constraint —
    often before a batch plan would, at one round trip per tuple.  The
    driver sees the answer shrink between sends (online aggregation).
    """
    statement = _TableStatement(table, aggregate, column, predicate, cost)
    return (
        yield from refresh_steps(
            statement.bound, constraint, pick=statement.pick,
            fields=lambda: statement.answer_fields,
        )
    )
