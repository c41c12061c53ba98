"""TRAPP replication architecture: sources, caches, protocol, costs."""

from repro.replication.cache import (
    BatchedRefreshReceipt,
    DataCache,
    SourceRefreshReceipt,
)
from repro.core.refresh.costs import (
    ColumnCostModel,
    CostModel,
    PerSourceCostModel,
    UniformCostModel,
)
from repro.replication.messages import (
    CardinalityChange,
    ColumnRefresh,
    MasterMigration,
    ObjectKey,
    Refresh,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.fanout import CacheGroup
from repro.replication.local import LocalRefresher
from repro.replication.sharding import ShardedSource, round_robin
from repro.replication.source import DataSource, RefreshMonitor
from repro.replication.system import TrappSystem

__all__ = [
    "BatchedRefreshReceipt",
    "SourceRefreshReceipt",
    "CacheGroup",
    "DataCache",
    "DataSource",
    "LocalRefresher",
    "ShardedSource",
    "round_robin",
    "RefreshMonitor",
    "TrappSystem",
    "CostModel",
    "UniformCostModel",
    "ColumnCostModel",
    "PerSourceCostModel",
    "ObjectKey",
    "Refresh",
    "ColumnRefresh",
    "RefreshReason",
    "RefreshRequest",
    "CardinalityChange",
    "MasterMigration",
]
