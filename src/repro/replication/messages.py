"""Protocol messages exchanged between data sources and data caches (§3).

The TRAPP refresh protocol has three message kinds:

* :class:`RefreshRequest` — cache → source: a *query-initiated* refresh for
  a set of tuples (the output of CHOOSE_REFRESH);
* :class:`Refresh` — source → cache: the current precise value of each
  requested object together with a new bound function, flagged with the
  reason (value- vs query-initiated);
* :class:`CardinalityChange` — source → cache: an insertion or deletion,
  which the §3 architecture propagates immediately;
* :class:`MasterMigration` — source → cache: a tuple's master moved to a
  different shard (elastic rebalancing), so future refresh requests for
  it must be routed there.

Messages are plain frozen dataclasses, except the three every master
update may build — :class:`ObjectKey` (the dict key of the write path),
:class:`RefreshPayload` and :class:`Refresh` — which are named tuples, so
they are built, hashed and compared in C; the simulation layer handles
delivery timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.bounds.functions import BoundFunction

__all__ = [
    "RefreshReason",
    "ObjectKey",
    "RefreshRequest",
    "RefreshPayload",
    "Refresh",
    "CardinalityChange",
    "MasterMigration",
]


class RefreshReason(enum.Enum):
    """Why a refresh was sent (paper §3.1)."""

    #: The master value escaped the cached bound.
    VALUE_INITIATED = "value"
    #: A query needed the exact value to meet its precision constraint.
    QUERY_INITIATED = "query"
    #: Another replica's query-initiated refresh was fanned out to this
    #: cache: the source piggybacked the fresh master value onto every
    #: sibling tracking the object, so one paid refresh tightens bounds
    #: group-wide (the replication fan-out regime of §8.1's multi-cache
    #: architecture).
    FANOUT = "fanout"


class ObjectKey(NamedTuple):
    """Identifies one replicated data object: (table, tuple id, column).

    A tuple subclass, so the subscription, monitor and scheduler dicts
    keyed by it hash and compare in C.
    """

    table: str
    tid: int
    column: str

    def __str__(self) -> str:
        return f"{self.table}#{self.tid}.{self.column}"


@dataclass(frozen=True, slots=True)
class RefreshRequest:
    """Cache → source: please refresh these objects now."""

    cache_id: str
    keys: tuple[ObjectKey, ...]


class RefreshPayload(NamedTuple):
    """One object's refresh content: exact value plus its new bound function."""

    key: ObjectKey
    value: float
    bound_function: BoundFunction


class Refresh(NamedTuple):
    """Source → cache: new exact values and bound functions."""

    source_id: str
    reason: RefreshReason
    payloads: tuple[RefreshPayload, ...]
    sent_at: float = 0.0


@dataclass(frozen=True, slots=True)
class CardinalityChange:
    """Source → cache: a tuple appeared or disappeared at the master.

    ``values`` carries the full new row for insertions; ``None`` deletes.
    """

    source_id: str
    table: str
    tid: int
    values: dict[str, float] | None = None

    @property
    def is_insert(self) -> bool:
        return self.values is not None


@dataclass(frozen=True, slots=True)
class MasterMigration:
    """Source → cache: a tuple's master now lives on a different shard.

    Sent by the shard that *gave up* the tuple (``source_id``); the
    receiving cache repoints its subscriptions and shard routing at
    ``to_source_id``.  Bound functions are untouched — migration moves
    ownership, not values, so cached bounds stay valid throughout.
    """

    source_id: str
    table: str
    tid: int
    to_source_id: str
