"""Aggregation queries with joins (paper §7): classification + heuristics."""

from repro.joins.classify import JoinedColumns, join_pairs, pair_index
from repro.joins.refresh import join_steps

__all__ = [
    "JoinedColumns",
    "pair_index",
    "join_pairs",
    "join_steps",
]
