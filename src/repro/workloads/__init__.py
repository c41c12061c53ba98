"""Workload generators: the paper's example data and the demo's clients.

The Figure 5/6 stock day and the random walks that drove the paper's
experiments are examples in ``examples/section8/``.
"""

from repro.workloads.netmon import (
    LINKS_SCHEMA,
    PAPER_LINKS,
    PaperLink,
    build_master_table,
    generate_topology,
    paper_costs,
    paper_example_table,
    paper_master_table,
)
from repro.workloads.queries import QuerySpec, QueryWorkload
from repro.workloads.service import (
    ClientScript,
    ClosedLoopResult,
    closed_loop_scripts,
    run_closed_loop,
)

__all__ = [
    "LINKS_SCHEMA",
    "PAPER_LINKS",
    "PaperLink",
    "paper_example_table",
    "paper_master_table",
    "paper_costs",
    "generate_topology",
    "build_master_table",
    "QuerySpec",
    "QueryWorkload",
    "ClientScript",
    "ClosedLoopResult",
    "closed_loop_scripts",
    "run_closed_loop",
]
