"""Paper §8 extensions that serve queries.

MEDIAN, TOP-n, GROUP BY and §8.2 rebatching are query routes.  Relative
constraints and iterative refresh run in ``core.executor``.  The §8
sketches no route reaches (the §8.1 cache hierarchy, the §8.3 piggyback
policy, continuous queries, delayed churn, snapshot reads, shortest
paths) are examples in ``examples/section8/``.
"""

from repro.extensions.batching import BatchedCostModel, rebatch_plan
from repro.extensions.groupby import GroupResult, grouped_query_steps
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
]
