"""Network-monitoring workload (the paper's running example, §1.1).

Two entry points:

* :func:`paper_example_table` — the exact six-link sample table of the
  paper's Figure 2 (cached bounds, precise master values, refresh costs),
  used by the tests of queries Q1–Q6 and of Figure 7;
* :func:`generate_topology` / :func:`build_master_table` — a synthetic
  wide-area network with per-link latency/bandwidth/traffic values driven
  by random walks, used by the simulation example and the service workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.bound import Bound
from repro.simulation.random_walk import GaussianWalk
from repro.storage.schema import Column, ColumnKind, Schema
from repro.storage.table import Table

__all__ = [
    "LINKS_SCHEMA",
    "PaperLink",
    "PAPER_LINKS",
    "paper_example_table",
    "paper_master_table",
    "paper_costs",
    "generate_topology",
    "build_master_table",
    "link_walks",
]


#: Schema of the monitoring station's cached ``links`` table.  ``from_node``
#: and ``to_node`` identify the link; the three metrics are bounded; the
#: refresh cost rides along as an exact column (Figure 2 layout).
LINKS_SCHEMA = Schema(
    [
        Column("from_node", ColumnKind.EXACT),
        Column("to_node", ColumnKind.EXACT),
        Column("latency", ColumnKind.BOUNDED),
        Column("bandwidth", ColumnKind.BOUNDED),
        Column("traffic", ColumnKind.BOUNDED),
        Column("cost", ColumnKind.EXACT),
    ],
    name="links",
)


@dataclass(frozen=True, slots=True)
class PaperLink:
    """One row of the paper's Figure 2: cached bounds and precise values."""

    tid: int
    from_node: int
    to_node: int
    latency_bound: Bound
    latency_value: float
    bandwidth_bound: Bound
    bandwidth_value: float
    traffic_bound: Bound
    traffic_value: float
    cost: float


#: The six links of Figure 2, transcribed exactly.
PAPER_LINKS: tuple[PaperLink, ...] = (
    PaperLink(1, 1, 2, Bound(2, 4), 3, Bound(60, 70), 61, Bound(95, 105), 98, 3),
    PaperLink(2, 2, 4, Bound(5, 7), 7, Bound(45, 60), 53, Bound(110, 120), 116, 6),
    PaperLink(3, 3, 4, Bound(12, 16), 13, Bound(55, 70), 62, Bound(95, 110), 105, 6),
    PaperLink(4, 2, 3, Bound(9, 11), 9, Bound(65, 70), 68, Bound(120, 145), 127, 8),
    PaperLink(5, 4, 5, Bound(8, 11), 11, Bound(40, 55), 50, Bound(90, 110), 95, 4),
    PaperLink(6, 5, 6, Bound(4, 6), 5, Bound(45, 60), 45, Bound(90, 105), 103, 2),
)


def paper_example_table() -> Table:
    """The cached ``links`` table exactly as in Figure 2 (bounds)."""
    table = Table("links", LINKS_SCHEMA)
    for link in PAPER_LINKS:
        table.insert(
            {
                "from_node": link.from_node,
                "to_node": link.to_node,
                "latency": link.latency_bound,
                "bandwidth": link.bandwidth_bound,
                "traffic": link.traffic_bound,
                "cost": link.cost,
            },
            tid=link.tid,
        )
    return table


def paper_master_table() -> Table:
    """The master ``links`` table: Figure 2's precise values."""
    table = Table("links", LINKS_SCHEMA)
    for link in PAPER_LINKS:
        table.insert(
            {
                "from_node": link.from_node,
                "to_node": link.to_node,
                "latency": link.latency_value,
                "bandwidth": link.bandwidth_value,
                "traffic": link.traffic_value,
                "cost": link.cost,
            },
            tid=link.tid,
        )
    return table


def paper_costs() -> dict[int, float]:
    """Tuple id → refresh cost, as in Figure 2."""
    return {link.tid: link.cost for link in PAPER_LINKS}


# ----------------------------------------------------------------------
# Synthetic topologies
# ----------------------------------------------------------------------
def generate_topology(
    n_nodes: int, n_links: int, rng: random.Random
) -> list[tuple[int, int]]:
    """A random connected directed topology of ``n_links`` distinct links.

    A spanning chain guarantees connectivity; remaining links are sampled
    uniformly without replacement.
    """
    if n_nodes < 2:
        raise ValueError("a topology needs at least two nodes")
    min_links = n_nodes - 1
    if n_links < min_links:
        raise ValueError(
            f"{n_links} links cannot connect {n_nodes} nodes (need {min_links})"
        )
    links: list[tuple[int, int]] = [(i, i + 1) for i in range(1, n_nodes)]
    existing = set(links)
    while len(links) < n_links:
        a = rng.randrange(1, n_nodes + 1)
        b = rng.randrange(1, n_nodes + 1)
        if a != b and (a, b) not in existing:
            existing.add((a, b))
            links.append((a, b))
    return links


def build_master_table(
    links: list[tuple[int, int]], rng: random.Random
) -> Table:
    """A master ``links`` table with plausible metric values.

    Latency in [2, 20] ms, bandwidth in [40, 70] units, traffic in
    [90, 150] units — the ranges of the paper's example data — and a
    refresh cost in [1, 10] standing in for node distance.
    """
    table = Table("links", LINKS_SCHEMA)
    for from_node, to_node in links:
        table.insert(
            {
                "from_node": from_node,
                "to_node": to_node,
                "latency": rng.uniform(2.0, 20.0),
                "bandwidth": rng.uniform(40.0, 70.0),
                "traffic": rng.uniform(90.0, 150.0),
                "cost": float(rng.randint(1, 10)),
            }
        )
    return table


def link_walks(
    table: Table, rng: random.Random, volatility: float = 0.5
) -> dict[tuple[int, str], GaussianWalk]:
    """Per-(tuple, metric) random walks seeded at the master values.

    Metrics are clamped to stay physical (latency ≥ 0.1, bandwidth ≥ 1,
    traffic ≥ 0).
    """
    floors = {"latency": 0.1, "bandwidth": 1.0, "traffic": 0.0}
    walks: dict[tuple[int, str], GaussianWalk] = {}
    for row in table.rows():
        for metric, floor in floors.items():
            walks[(row.tid, metric)] = GaussianWalk(
                value=row.number(metric),
                volatility=volatility,
                rng=random.Random(rng.getrandbits(64)),
                minimum=floor,
            )
    return walks
