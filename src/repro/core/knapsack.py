"""0/1 knapsack solvers backing the SUM/AVG CHOOSE_REFRESH optimizers.

Paper §5.2 reduces "choose the cheapest set of tuples to refresh for a
bounded SUM query" to the 0/1 Knapsack Problem: the knapsack holds the
tuples *not* refreshed; an item's weight is its bound width ``H_i - L_i``;
its profit is its refresh cost ``C_i``; the capacity is the precision
constraint ``R``.  Maximizing the profit kept in the knapsack minimizes the
cost of the refreshed complement.

Two APIs are provided over one solver core:

* the **object API** (:func:`solve_exact_dp`, :func:`solve_ibarra_kim`,
  :func:`solve_greedy_uniform`) over :class:`KnapsackItem` sequences —
  the reference interface Figure 5's golden and the tests call.  The
  brute-force optimality oracle and the density-greedy ablation baseline
  are ``tests/oracle/knapsack.py``;
* the **vector API** (:func:`solve_vector`) over parallel weight/profit
  sequences (stdlib ``array('d')``/``array('q')`` or any indexables) —
  the planner's hot path, consuming candidate vectors harvested straight
  from a table's column store with no per-tuple Python objects.

The exact dynamic program is a *sparse* minimum-weight-per-profit DP: the
state set is the Pareto frontier of (profit, weight) pairs held in flat
parallel arrays with dominance pruning, and plans are reconstructed by
following per-state parent pointers into an append-only arena.  Memory is
``O(states created)`` instead of the ``n × P`` boolean take-matrix the
first implementation allocated, and runtime collapses whenever few
distinct profit sums are achievable (the common small-integer-cost case).

:func:`solve_ibarra_kim` is the ε-approximation scheme of Ibarra & Kim
(JACM 1975): profits are floored to multiples of ``K = ε · P̂ / n`` where
``P̂`` is the density-greedy profit (``P̂ ≤ OPT ≤ 2 P̂``), guaranteeing
kept profit ≥ (1 − ε) · OPT while capping the feasible scaled-profit range
— and hence the DP frontier — at ``O(n / ε)`` states.  With
``early_exit`` the DP also stops as soon as the best feasible profit
reaches ``(1 − ε)`` of the fractional (profit-prefix) upper bound, which
preserves the guarantee; :func:`solve_vector` enables it, the object
API defaults to the full DP for reproducibility.

All solvers accept real-valued weights; only profits are discretized.
Items with non-positive weight always fit and are placed in the knapsack
unconditionally (a zero-width bound consumes none of the precision
budget); items wider than the capacity can never be kept.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import OptimizerError

__all__ = [
    "KnapsackItem",
    "KnapsackSolution",
    "VectorSolution",
    "solve_exact_dp",
    "solve_ibarra_kim",
    "solve_greedy_uniform",
    "solve_vector",
]

#: Fallback ε when the vector API must approximate and none was supplied
#: (the paper finds 0.1 "very close to optimal" — Figure 5 discussion).
_FALLBACK_EPSILON = 0.1

#: The vector API runs the exact DP when the integral profits sum to at
#: most this; above it, or on fractional profits, Ibarra–Kim's ε scheme.
_EXACT_PROFIT_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class KnapsackItem:
    """One candidate item: an opaque id, a weight, and a profit."""

    item_id: int
    weight: float
    profit: float

    def __post_init__(self) -> None:
        if math.isnan(self.weight) or math.isnan(self.profit):
            raise OptimizerError("knapsack weight/profit must not be NaN")
        if self.profit < 0:
            raise OptimizerError(
                f"negative profit {self.profit} for item {self.item_id}; "
                "refresh costs must be non-negative"
            )


@dataclass(frozen=True, slots=True)
class KnapsackSolution:
    """The chosen (kept) item ids plus solution totals."""

    chosen: frozenset[int]
    total_profit: float
    total_weight: float

    @staticmethod
    def of(items: Iterable[KnapsackItem], chosen_ids: Iterable[int]) -> "KnapsackSolution":
        chosen = frozenset(chosen_ids)
        total_profit = sum(i.profit for i in items if i.item_id in chosen)
        total_weight = sum(i.weight for i in items if i.item_id in chosen)
        return KnapsackSolution(chosen, total_profit, total_weight)


@dataclass(frozen=True, slots=True)
class VectorSolution:
    """A plan over candidate *positions* (the vector API's result).

    ``refresh`` holds the positions NOT kept in the knapsack — i.e. the
    tuples CHOOSE_REFRESH must refresh — because that complement is what
    every caller wants; ``refresh_profit`` is its total cost.
    """

    refresh: tuple[int, ...]
    refresh_profit: float
    kept_profit: float
    kept_weight: float


def _validate(items: Sequence[KnapsackItem], capacity: float) -> None:
    if math.isnan(capacity):
        raise OptimizerError("knapsack capacity must not be NaN")
    seen: set[int] = set()
    for item in items:
        if item.item_id in seen:
            raise OptimizerError(f"duplicate knapsack item id {item.item_id}")
        seen.add(item.item_id)


def _split_free_items(
    items: Sequence[KnapsackItem], capacity: float
) -> tuple[list[KnapsackItem], list[int], list[int]]:
    """Separate items into (contenders, always-in ids, never-in ids).

    Non-positive-weight items are free profit; items heavier than the
    capacity can never fit.
    """
    contenders: list[KnapsackItem] = []
    always_in: list[int] = []
    never_in: list[int] = []
    for item in items:
        if item.weight <= 0:
            always_in.append(item.item_id)
        elif item.weight > capacity:
            never_in.append(item.item_id)
        else:
            contenders.append(item)
    return contenders, always_in, never_in


# ----------------------------------------------------------------------
# Sparse DP core (flat arrays, dominance pruning, parent pointers)
# ----------------------------------------------------------------------
def _sparse_dp(
    weights: Sequence[float],
    profits: Sequence[int],
    capacity: float,
    stop_profit: float | None = None,
) -> list[int]:
    """Exact min-weight-per-profit DP over the Pareto state frontier.

    ``weights`` must all lie in ``(0, capacity]`` and ``profits`` must be
    positive integers — callers pre-filter free, oversize, and
    zero-profit items.  Returns the *positions* of the kept
    (maximum-profit feasible) set.

    The frontier is the list of non-dominated states — (profit, weight)
    pairs with no alternative of ≥ profit at ≤ weight — kept as parallel
    flat arrays ascending in both coordinates.  Each item pass merges the
    frontier with its item-extended copy (capacity-truncated) and prunes
    dominated states in one sweep.  Reconstruction follows per-state
    parent pointers into an append-only arena of (item, parent) records,
    so peak memory is proportional to states *created*, never ``n × P``.

    ``stop_profit`` stops the pass loop once the best feasible profit
    reaches it (the ε-approximation's early exit; exactness is only
    guaranteed without it).
    """
    fp: list[int] = [0]  # frontier profits, strictly ascending
    fw: list[float] = [0.0]  # frontier weights, strictly ascending
    fid: list[int] = [-1]  # arena id of each frontier state
    arena_item = array("q")
    arena_parent = array("q")

    for pos in range(len(weights)):
        w = weights[pos]
        p = profits[pos]
        # Extended states come from frontier states that still fit after
        # adding this item; fw ascends, so they form a prefix.  The
        # bisect over ``capacity - w`` can misplace the boundary by an
        # ulp in either direction; the true predicate ``fw[j] + w <=
        # capacity`` is monotone along the ascending weights (float
        # addition is order-preserving), so walk to its exact partition
        # point — a kept set landing exactly on the precision budget is
        # common with clean decimal widths and must stay feasible.
        cut = bisect_right(fw, capacity - w)
        while cut < len(fw) and fw[cut] + w <= capacity:
            cut += 1
        while cut > 0 and fw[cut - 1] + w > capacity:
            cut -= 1
        if cut == 0:
            continue
        n_f = len(fp)
        nfp: list[int] = []
        nfw: list[float] = []
        nfid: list[int] = []
        i = 0  # walks the existing frontier
        j = 0  # walks the extended prefix
        while i < n_f or j < cut:
            if j >= cut:
                use_ext = False
            elif i >= n_f:
                use_ext = True
            else:
                pe = fp[j] + p
                if fp[i] < pe:
                    use_ext = False
                elif fp[i] > pe:
                    use_ext = True
                elif fw[i] <= fw[j] + w:
                    use_ext = False  # same profit, existing is lighter
                    j += 1
                else:
                    use_ext = True  # same profit, extension is lighter
                    i += 1
            if use_ext:
                cp = fp[j] + p
                cw = fw[j] + w
                arena_item.append(pos)
                arena_parent.append(fid[j])
                cid = len(arena_item) - 1
                j += 1
            else:
                cp = fp[i]
                cw = fw[i]
                cid = fid[i]
                i += 1
            # Dominance prune: earlier (lower-profit) states at >= weight
            # are strictly worse than the incoming state.
            while nfw and nfw[-1] >= cw:
                nfp.pop()
                nfw.pop()
                nfid.pop()
            nfp.append(cp)
            nfw.append(cw)
            nfid.append(cid)
        fp, fw, fid = nfp, nfw, nfid
        if stop_profit is not None and fp[-1] >= stop_profit:
            break

    kept: list[int] = []
    state = fid[-1]  # every frontier state is feasible; last has max profit
    while state != -1:
        kept.append(arena_item[state])
        state = arena_parent[state]
    kept.reverse()
    return kept


def _ik_core(
    weights: Sequence[float],
    profits: Sequence[float],
    capacity: float,
    epsilon: float,
    early_exit: bool,
) -> list[int]:
    """Ibarra–Kim over parallel vectors; returns kept positions.

    Items must be contenders (``0 < w <= capacity``).  One profit-prefix
    pass over the density ordering yields the greedy profit ``P̂``, the
    greedy solution itself, and the fractional (Dantzig) upper bound.

    With ``early_exit`` the greedy solution is returned outright whenever
    it already certifies ``greedy ≥ (1 − ε) · frac_ub ≥ (1 − ε) · OPT`` —
    the density greedy is within one item's profit of the fractional
    bound, so at planner scale (OPT ≫ p_max) the DP is skipped entirely
    and selection is one sorted sweep.  Otherwise profits are floored to
    multiples of ``K = ε · P̂ / m̂``, where ``m̂`` bounds how many items
    any feasible solution holds (lightest-first prefix count), keeping
    the guarantee (an optimum uses ≤ m̂ items, so flooring loses ≤
    m̂ · K = ε · P̂ ≤ ε · OPT) while capping the DP frontier at
    ``OPT / K ≤ 2 m̂ / ε`` states.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda k: (-(profits[k] / weights[k]), k))
    remaining = capacity
    greedy_profit = 0.0
    greedy_kept: list[int] = []
    frac_ub = 0.0
    frac_done = False
    p_max = 0.0
    for k in order:
        w = weights[k]
        p = profits[k]
        if p > p_max:
            p_max = p
        if w <= remaining:
            greedy_profit += p
            greedy_kept.append(k)
            remaining -= w
            if not frac_done:
                frac_ub += p
        elif not frac_done:
            frac_ub += p * (remaining / w)
            frac_done = True
    p_hat = max(p_max, greedy_profit)
    if p_hat <= 0:
        return []
    if early_exit and greedy_profit >= (1.0 - epsilon) * frac_ub:
        return greedy_kept  # profit-prefix certificate: greedy is (1−ε)-opt

    budget = capacity
    m_hat = 0
    for w in sorted(weights):
        if w > budget:
            break
        budget -= w
        m_hat += 1
    scale = epsilon * p_hat / max(1, m_hat)

    dp_pos: list[int] = []
    dp_w: list[float] = []
    dp_p: list[int] = []
    for k in order:
        scaled = int(profits[k] / scale)
        if scaled > 0:  # zero-profit (after flooring) items never help
            dp_pos.append(k)
            dp_w.append(weights[k])
            dp_p.append(scaled)
    if not dp_pos:
        return greedy_kept if greedy_profit > 0 else []
    stop = ((1.0 - epsilon) * frac_ub / scale) if early_exit else None
    kept = _sparse_dp(dp_w, dp_p, capacity, stop_profit=stop)
    best = [dp_pos[k] for k in kept]
    # The scaled DP can only see flooring-blurred profits; never return a
    # worse set than the greedy certificate pass already found.
    if sum(profits[k] for k in best) < greedy_profit:
        return greedy_kept
    return best


# ----------------------------------------------------------------------
# Exact dynamic program (profit dimension)
# ----------------------------------------------------------------------
def solve_exact_dp(
    items: Sequence[KnapsackItem], capacity: float
) -> KnapsackSolution:
    """Exact 0/1 knapsack via minimum-weight-per-profit DP.

    Profits must be integral, as with the paper's integer refresh costs;
    each is taken as ``round(item.profit)``.  Real-valued weights are
    handled natively.  Runs over the sparse Pareto frontier —
    ``O(n · |frontier|)`` time and ``O(states)`` memory, never worse than
    the dense ``O(n · P)`` and dramatically better when few distinct
    profit sums are achievable.
    """
    _validate(items, capacity)
    contenders, always_in, _ = _split_free_items(items, capacity)

    def profit_of(item: KnapsackItem) -> int:
        scaled = round(item.profit)
        if abs(scaled - item.profit) > 1e-9:
            raise OptimizerError(
                f"solve_exact_dp requires integral profits; item "
                f"{item.item_id} has profit {item.profit}. "
                "Use solve_ibarra_kim for real-valued profits."
            )
        return scaled

    int_profits = [profit_of(item) for item in contenders]
    chosen: set[int] = set(always_in)
    # Zero-profit contenders never help; leave them out.
    dp_pos = [k for k, p in enumerate(int_profits) if p > 0]
    if dp_pos:
        dp_w = [contenders[k].weight for k in dp_pos]
        if sum(dp_w) <= capacity:  # everything fits — no DP needed
            chosen.update(contenders[k].item_id for k in dp_pos)
        else:
            kept = _sparse_dp(dp_w, [int_profits[k] for k in dp_pos], capacity)
            chosen.update(contenders[dp_pos[k]].item_id for k in kept)
    return KnapsackSolution.of(items, chosen)


# ----------------------------------------------------------------------
# Ibarra–Kim ε-approximation
# ----------------------------------------------------------------------
def solve_ibarra_kim(
    items: Sequence[KnapsackItem],
    capacity: float,
    epsilon: float,
    early_exit: bool = False,
) -> KnapsackSolution:
    """ε-approximate 0/1 knapsack by profit scaling (Ibarra & Kim, 1975).

    Profits are floored to multiples of ``K = ε · P̂ / n`` (``P̂`` the
    density-greedy profit, so ``P̂ ≤ OPT ≤ 2 P̂``) and the sparse exact DP
    runs on the scaled instance: kept profit ≥ OPT − n·K ≥ (1 − ε) · OPT,
    while capacity pruning bounds the frontier at ``OPT/K ≤ 2n/ε`` states
    — the ε/time knob the paper's Figure 5 plots.  ``early_exit`` stops
    the DP at ``(1 − ε)`` of the fractional upper bound (guarantee
    preserved); the planner's vector path enables it.
    """
    if not 0 < epsilon < 1:
        raise OptimizerError(f"epsilon must lie in (0, 1), got {epsilon}")
    _validate(items, capacity)
    contenders, always_in, _ = _split_free_items(items, capacity)
    if not contenders:
        return KnapsackSolution.of(items, always_in)

    weights = [item.weight for item in contenders]
    if sum(weights) <= capacity:  # everything fits
        chosen = set(always_in)
        chosen.update(item.item_id for item in contenders)
        return KnapsackSolution.of(items, chosen)

    profits = [item.profit for item in contenders]
    kept = _ik_core(weights, profits, capacity, epsilon, early_exit)
    chosen = set(always_in)
    chosen.update(contenders[k].item_id for k in kept)
    return KnapsackSolution.of(items, chosen)


# ----------------------------------------------------------------------
# Vector-native planner API
# ----------------------------------------------------------------------
def solve_vector(
    weights: Sequence[float],
    profits: Sequence[float],
    capacity: float,
    *,
    epsilon: float | None = None,
    order: Sequence[int] | None = None,
    integral: bool | None = None,
    profit_total: float | None = None,
) -> VectorSolution:
    """Plan a refresh directly from parallel candidate vectors.

    ``weights`` and ``profits`` are parallel sequences (stdlib ``array``
    from :func:`repro.storage.columnar.harvest_candidates`, NumPy arrays,
    or plain lists); position ``k`` describes one candidate tuple.  The
    result lists the positions *not* kept — the refresh plan — because
    that complement is what CHOOSE_REFRESH materializes.

    The instance alone selects the solver (§5.2): uniform profits take
    the ascending-weight greedy (walking ``order`` — positions pre-sorted
    by (weight, position) from a planner cache — instead of sorting);
    integral profits summing to at most ``_EXACT_PROFIT_LIMIT`` take
    the sparse exact DP; anything else takes Ibarra–Kim at ``epsilon``
    with the profit-prefix early exit enabled.  ``integral`` and
    ``profit_total`` (any upper bound on the integral profit sum)
    short-circuit the per-call scans when the harvester already knows
    them.
    """
    if math.isnan(capacity):
        raise OptimizerError("knapsack capacity must not be NaN")
    n = len(weights)
    kept: list[int] = []
    refresh: list[int] = []
    contend: list[int] = []
    total_w = 0.0
    p_min = math.inf
    p_max = -math.inf
    for k in range(n):
        w = weights[k]
        p = profits[k]
        if w != w or p != p:
            raise OptimizerError("knapsack weight/profit must not be NaN")
        if p < 0:
            raise OptimizerError(
                f"negative profit {p} at position {k}; refresh costs must "
                "be non-negative"
            )
        if w <= 0:
            kept.append(k)
        elif w > capacity:
            refresh.append(k)
        else:
            contend.append(k)
            total_w += w
            if p < p_min:
                p_min = p
            if p > p_max:
                p_max = p

    if contend and total_w <= capacity:
        kept.extend(contend)
    elif contend:
        if p_min == p_max:
            kept_c, refresh_c = _greedy_uniform_positions(
                weights, capacity, contend, order
            )
            kept.extend(kept_c)
            refresh.extend(refresh_c)
        else:
            if integral is None:
                integral = all(
                    abs(profits[k] - round(profits[k])) <= 1e-9 for k in contend
                )
            if integral and profit_total is None:
                profit_total = sum(int(round(profits[k])) for k in contend)
            if integral and profit_total <= _EXACT_PROFIT_LIMIT:
                dp = [k for k in contend if round(profits[k]) > 0]
                dp_kept = _sparse_dp(
                    [weights[k] for k in dp],
                    [int(round(profits[k])) for k in dp],
                    capacity,
                )
                kept_set = {dp[k] for k in dp_kept}
            else:
                eps = epsilon if epsilon is not None else _FALLBACK_EPSILON
                if not 0 < eps < 1:
                    raise OptimizerError(f"epsilon must lie in (0, 1), got {eps}")
                ik_kept = _ik_core(
                    [weights[k] for k in contend],
                    [profits[k] for k in contend],
                    capacity,
                    eps,
                    early_exit=True,
                )
                kept_set = {contend[k] for k in ik_kept}
            for k in contend:
                (kept if k in kept_set else refresh).append(k)

    refresh_profit = 0.0
    for k in refresh:
        refresh_profit += profits[k]
    kept_profit = 0.0
    kept_weight = 0.0
    for k in kept:
        kept_profit += profits[k]
        kept_weight += weights[k]
    return VectorSolution(
        refresh=tuple(refresh),
        refresh_profit=refresh_profit,
        kept_profit=kept_profit,
        kept_weight=kept_weight,
    )


def _greedy_uniform_positions(
    weights: Sequence[float],
    capacity: float,
    contend: list[int],
    order: Sequence[int] | None,
) -> tuple[list[int], list[int]]:
    """Ascending-weight greedy over contender positions.

    With ``order`` (all positions, ascending by (weight, position)) no
    sort happens; weights ascend, so once one contender misses the
    remaining budget none after it can fit.
    """
    kept: list[int] = []
    refresh: list[int] = []
    if order is not None:
        remaining = capacity
        for k in order:
            w = weights[k]
            if w <= 0 or w > capacity:
                continue  # free / oversize: already routed by the caller
            if w <= remaining:
                kept.append(k)
                remaining -= w
            else:
                refresh.append(k)
        return kept, refresh
    remaining = capacity
    for k in sorted(contend, key=lambda k: (weights[k], k)):
        if weights[k] <= remaining:
            kept.append(k)
            remaining -= weights[k]
        else:
            refresh.append(k)
    return kept, refresh


# ----------------------------------------------------------------------
# Greedy variants
# ----------------------------------------------------------------------
def solve_greedy_uniform(
    items: Sequence[KnapsackItem], capacity: float
) -> KnapsackSolution:
    """Ascending-weight greedy; optimal when all profits are equal (§5.2).

    Placing the lightest items first maximizes the *number* of items kept,
    which maximizes total profit under uniform profits.  ``O(n log n)``;
    the executor's planner walks the column store's cached width order
    instead (:meth:`repro.storage.columnar.ColumnStore.width_order`).
    """
    _validate(items, capacity)
    contenders, always_in, _ = _split_free_items(items, capacity)
    chosen = set(always_in)
    remaining = capacity
    for item in sorted(contenders, key=lambda i: (i.weight, i.item_id)):
        if item.weight <= remaining:
            chosen.add(item.item_id)
            remaining -= item.weight
    return KnapsackSolution.of(items, chosen)
