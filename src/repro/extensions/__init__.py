"""Paper §8 extensions that serve queries or back golden claims.

MEDIAN, TOP-n, GROUP BY and §8.2 rebatching are query routes; the §8.1
cache hierarchy and §8.3 piggybacking back golden claim rows.  Relative
constraints and iterative refresh run in ``core.executor``.  The §8
sketches no route reaches (continuous queries, delayed churn, snapshot
reads, shortest paths) are examples in ``examples/section8/``.
"""

from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.extensions.groupby import GroupResult, grouped_query_steps
from repro.extensions.hierarchy import HierarchicalCache, LevelRoot, build_chain
from repro.extensions.prerefresh import (
    PiggybackPolicy,
    edge_risk,
    pre_refresh_candidates,
)
from repro.extensions.median_spec import (
    CHOOSE_MEDIAN,
    MEDIAN,
    MedianAggregate,
    MedianChooseRefresh,
    median_of,
)
from repro.extensions.topn import TopNResult, top_n_steps

__all__ = [
    "MEDIAN",
    "CHOOSE_MEDIAN",
    "MedianAggregate",
    "MedianChooseRefresh",
    "median_of",
    "TopNResult",
    "top_n_steps",
    "BatchedCostModel",
    "rebatch_plan",
    "GroupResult",
    "grouped_query_steps",
    "HierarchicalCache",
    "LevelRoot",
    "build_chain",
    "PiggybackPolicy",
    "edge_risk",
    "pre_refresh_candidates",
]
