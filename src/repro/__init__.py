"""TRAPP/AG — precision-performance tradeoff for aggregation queries over
replicated data.

A from-scratch reproduction of Olston & Widom (VLDB 2000).  Caches store
guaranteed value *bounds* instead of stale exact copies; queries carry a
``WITHIN R`` precision constraint; the system combines cached bounds with
minimum-cost source refreshes to return a guaranteed interval answer no
wider than ``R``.

Quick start::

    from repro import TrappSystem
    from repro.workloads import paper_master_table

    system = TrappSystem()
    source = system.add_source("node")
    source.add_table(paper_master_table())
    cache = system.add_cache("monitor")
    cache.subscribe_table(source, "links")
    answer = system.query("monitor", "SELECT SUM(latency) WITHIN 5 FROM links")
    print(answer.bound)   # an interval at most 5 wide containing the truth

See docs/ARCHITECTURE.md for the module map and docs/REPRODUCTION.md for
the reproduced tables and figures.
"""

from repro.core import (
    AbsolutePrecision,
    Bound,
    BoundedAnswer,
    PrecisionConstraint,
    RelativePrecision,
)
from repro.replication import DataCache, DataSource, TrappSystem
from repro.sql import parse_statement

# Importing the extensions package registers MEDIAN with the aggregate and
# CHOOSE_REFRESH registries, so SQL like
# "SELECT MEDIAN(price) WITHIN 1 FROM stocks" works out of the box.
import repro.extensions  # noqa: E402,F401  (registration side effect)

__version__ = "1.0.0"

__all__ = [
    "Bound",
    "BoundedAnswer",
    "PrecisionConstraint",
    "AbsolutePrecision",
    "RelativePrecision",
    "TrappSystem",
    "DataSource",
    "DataCache",
    "parse_statement",
    "__version__",
]
