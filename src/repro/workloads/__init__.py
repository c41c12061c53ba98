"""Workload generators: the paper's example data and synthetic equivalents."""

from repro.workloads.netmon import (
    LINKS_SCHEMA,
    PAPER_LINKS,
    PaperLink,
    build_master_table,
    generate_topology,
    link_walks,
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
from repro.workloads.stocks import (
    STOCKS_SCHEMA,
    StockDay,
    stock_cache_table,
    stock_costs,
    stock_master_table,
    volatile_stock_day,
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
    "link_walks",
    "STOCKS_SCHEMA",
    "StockDay",
    "volatile_stock_day",
    "stock_cache_table",
    "stock_master_table",
    "stock_costs",
    "QuerySpec",
    "QueryWorkload",
    "ClientScript",
    "ClosedLoopResult",
    "closed_loop_scripts",
    "run_closed_loop",
]
