"""Paper §8 extensions that serve queries.

MEDIAN, TOP-n, GROUP BY and §8.2 rebatching are query routes.  Relative
constraints and iterative refresh run in ``core.executor``.  The §8
sketches no route reaches (the §8.1 cache hierarchy, §8.3's extra
refreshes riding on a source's answers, continuous queries, delayed
churn, snapshot reads, shortest paths) are examples in
``examples/section8/``; the §8.3 one wraps a source instance, so the
source itself carries no hook for it.
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
