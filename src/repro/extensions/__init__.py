"""Paper §8 extensions: MEDIAN, TOP-n, batching, GROUP BY and more.
(Relative constraints and iterative refresh run in ``core.executor``.)"""

from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.extensions.cardinality import ChurnBuffer, PendingChurn, churn_adjusted
from repro.extensions.groupby import GroupResult, grouped_query
from repro.extensions.hierarchy import HierarchicalCache, LevelRoot, build_chain
from repro.extensions.prerefresh import (
    PiggybackPolicy,
    edge_risk,
    pre_refresh_candidates,
)
from repro.extensions.continuous import ContinuousQuery
from repro.extensions.paths import (
    BoundedPathAnswer,
    PathQueryExecutor,
    bounded_shortest_path,
)
from repro.extensions.snapshot import SnapshotView, VersionedTable
from repro.extensions.median_spec import (
    CHOOSE_MEDIAN,
    MEDIAN,
    MedianAggregate,
    MedianChooseRefresh,
    median_of,
)
from repro.extensions.topn import TopNResult, bounded_top_n

__all__ = [
    "MEDIAN",
    "CHOOSE_MEDIAN",
    "MedianAggregate",
    "MedianChooseRefresh",
    "median_of",
    "TopNResult",
    "bounded_top_n",
    "BatchedCostModel",
    "rebatch_plan",
    "GroupResult",
    "grouped_query",
    "ChurnBuffer",
    "PendingChurn",
    "churn_adjusted",
    "HierarchicalCache",
    "LevelRoot",
    "build_chain",
    "PiggybackPolicy",
    "edge_risk",
    "pre_refresh_candidates",
    "SnapshotView",
    "VersionedTable",
    "ContinuousQuery",
    "BoundedPathAnswer",
    "PathQueryExecutor",
    "bounded_shortest_path",
]
