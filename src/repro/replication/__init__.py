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
    TableCostModel,
    UniformCostModel,
)
from repro.replication.messages import (
    CardinalityChange,
    MasterMigration,
    ObjectKey,
    Refresh,
    RefreshPayload,
    RefreshReason,
    RefreshRequest,
)
from repro.replication.calibration import CostCalibrator
from repro.replication.fanout import CacheGroup
from repro.replication.local import LocalRefresher
from repro.replication.sharding import (
    KeyPartitioner,
    ShardedSource,
    hash_by_key,
    range_by_key,
    round_robin,
)
from repro.replication.source import DataSource, RefreshMonitor
from repro.replication.system import TrappSystem

__all__ = [
    "BatchedRefreshReceipt",
    "SourceRefreshReceipt",
    "CacheGroup",
    "CostCalibrator",
    "DataCache",
    "DataSource",
    "LocalRefresher",
    "KeyPartitioner",
    "ShardedSource",
    "hash_by_key",
    "range_by_key",
    "round_robin",
    "RefreshMonitor",
    "TrappSystem",
    "CostModel",
    "UniformCostModel",
    "ColumnCostModel",
    "PerSourceCostModel",
    "TableCostModel",
    "ObjectKey",
    "Refresh",
    "RefreshPayload",
    "RefreshReason",
    "RefreshRequest",
    "CardinalityChange",
    "MasterMigration",
]
