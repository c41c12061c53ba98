"""Bounded shortest paths — beyond aggregation queries (paper §8.1).

The paper's own example of extending TRAPP past SQL aggregates: "suppose
we wish to find the lowest latency path in the network from node N_i to
node N_j.  A precision constraint might require that the value
corresponding to the answer returned by TRAPP (i.e., the latency of the
selected path) is within some distance from the value of the precise best
answer."

With every link latency cached as a bound ``[L_e, H_e]``:

* the **optimistic** distance ``d_L`` (Dijkstra over lower endpoints) is a
  lower bound on the true shortest-path latency;
* the **pessimistic** distance ``d_H`` (Dijkstra over upper endpoints) is
  an upper bound — the true best path costs at most what the best
  pessimistic path costs pessimistically;

so ``[d_L, d_H]`` is a guaranteed bounded answer, and the path achieving
``d_H`` is a concrete route whose true latency provably sits within the
bound.  The §8.1 constraint form is satisfied once ``d_H - d_L <= R``:
the returned route's latency is within ``R`` of the precise optimum.

CHOOSE_REFRESH follows the iterative pattern — one-tuple rounds of the
executor's refresh loop: while the bound is too wide, refresh the
widest-bound link on the current *optimistic* path (the place where
optimism and pessimism can disagree), recompute, repeat.  Tests verify
the guarantee against exhaustively realized networks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound
from repro.core.constraints import PrecisionConstraint
from repro.core.executor import ExecutionSteps, PlannedRefresh, refresh_steps
from repro.core.refresh.base import CostFunc, RefreshPlan, candidate_costs, uniform_cost
from repro.errors import TrappError
from repro.storage.table import Table

__all__ = ["BoundedPathAnswer", "bounded_shortest_path", "path_steps"]


@dataclass(frozen=True, slots=True)
class BoundedPathAnswer(BoundedAnswer):
    """A guaranteed interval on the optimal path latency plus a witness.

    ``bound`` contains the precise shortest-path latency; ``route`` is a
    concrete node sequence whose true latency lies in ``bound``, and
    ``refreshed`` names the link tuples refreshed while answering.
    """

    route: tuple[int, ...] = ()


def _dijkstra(
    adjacency: dict[int, list[tuple[int, int, float]]],
    source: int,
    target: int,
) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Distance, node route, and link-tid route from source to target.

    ``adjacency[u]`` holds ``(v, tid, weight)`` triples.  Returns
    ``(inf, (), ())`` when the target is unreachable.
    """
    distances: dict[int, float] = {source: 0.0}
    previous: dict[int, tuple[int, int]] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    visited: set[int] = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for neighbor, tid, weight in adjacency.get(node, ()):
            candidate = dist + weight
            if candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                previous[neighbor] = (node, tid)
                heapq.heappush(heap, (candidate, neighbor))
    if target not in distances:
        return math.inf, (), ()
    route = [target]
    links = []
    node = target
    while node != source:
        parent, tid = previous[node]
        links.append(tid)
        route.append(parent)
        node = parent
    return distances[target], tuple(reversed(route)), tuple(reversed(links))


def _adjacency(
    table: Table,
    from_column: str,
    to_column: str,
    latency_column: str,
    endpoint: str,
) -> dict[int, list[tuple[int, int, float]]]:
    adjacency: dict[int, list[tuple[int, int, float]]] = {}
    for row in table.rows():
        bound = row.bound(latency_column)
        weight = bound.lo if endpoint == "lo" else bound.hi
        if weight < 0:
            raise TrappError(
                f"link #{row.tid} has negative possible latency {weight}; "
                "shortest paths require non-negative weights"
            )
        u = int(row.number(from_column))
        v = int(row.number(to_column))
        adjacency.setdefault(u, []).append((v, row.tid, weight))
    return adjacency


def bounded_shortest_path(
    table: Table,
    source: int,
    target: int,
    from_column: str = "from_node",
    to_column: str = "to_node",
    latency_column: str = "latency",
) -> BoundedPathAnswer:
    """The bounded answer ``[d_L, d_H]`` plus the pessimistic witness route."""
    lo_dist, _, _ = _dijkstra(
        _adjacency(table, from_column, to_column, latency_column, "lo"),
        source,
        target,
    )
    hi_dist, hi_route, _ = _dijkstra(
        _adjacency(table, from_column, to_column, latency_column, "hi"),
        source,
        target,
    )
    if math.isinf(lo_dist) or math.isinf(hi_dist):
        raise TrappError(f"no path from N{source} to N{target}")
    return BoundedPathAnswer(bound=Bound(lo_dist, hi_dist), route=hi_route)


def path_steps(
    table: Table,
    source: int,
    target: int,
    constraint: PrecisionConstraint | float,
    cost: CostFunc = uniform_cost,
    from_column: str = "from_node",
    to_column: str = "to_node",
    latency_column: str = "latency",
) -> ExecutionSteps:
    """The lowest-latency-path query as a resumable generator.

    Refresh policy: one link per round of the executor's refresh loop
    (:func:`~repro.core.executor.refresh_steps`) — the widest link not
    yet requested on the current *optimistic* shortest path; the
    optimistic route is where a too rosy lower bound can hide, so
    collapsing its uncertainty either certifies it or reroutes
    optimism elsewhere.  Falls back to the pessimistic route's links
    when the optimistic path is exact.  Drive it with
    :func:`~repro.core.executor.drive_steps`; it returns a
    :class:`BoundedPathAnswer`.
    """
    answer = None

    def bound() -> Bound:
        nonlocal answer
        answer = bounded_shortest_path(
            table, source, target, from_column, to_column, latency_column
        )
        return answer.bound

    def pick(bound, max_width, requested) -> PlannedRefresh | None:
        tid = _pick_link(
            table, source, target, requested.get(table, ()),
            from_column, to_column, latency_column,
        )
        if tid is None:
            return None
        at = np.searchsorted(table.columns.sorted_tids(), [tid])
        tid_cost = float(candidate_costs(table, cost, at)[0])
        return PlannedRefresh(
            table, RefreshPlan(frozenset((tid,)), tid_cost), max_width, "PATH"
        )

    return (
        yield from refresh_steps(
            bound, constraint, pick=pick, answer_type=BoundedPathAnswer,
            fields=lambda: {"route": answer.route},
        )
    )


def _pick_link(
    table: Table, source: int, target: int, requested,
    from_column: str, to_column: str, latency_column: str,
) -> int | None:
    for endpoint in ("lo", "hi"):
        _, _, links = _dijkstra(
            _adjacency(table, from_column, to_column, latency_column, endpoint),
            source,
            target,
        )
        candidates = [
            tid for tid in links
            if tid not in requested and table.row(tid).bound(latency_column).width > 0
        ]
        if candidates:
            return max(
                candidates,
                key=lambda tid: table.row(tid).bound(latency_column).width,
            )
    return None
