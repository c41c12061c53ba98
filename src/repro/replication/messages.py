"""Protocol messages exchanged between data sources and data caches (§3).

The TRAPP refresh protocol has three message kinds:

* :class:`RefreshRequest` — cache → source: a *query-initiated* refresh of
  some tuples of one table (the output of CHOOSE_REFRESH);
* :class:`Refresh` — source → cache: per refreshed column, the tuples'
  current precise values ``V(T_r)`` and new width parameters ``W`` as
  parallel arrays (:class:`ColumnRefresh`), plus the one refresh time
  ``T_r`` and bound shape of the whole message — the Appendix A encoding
  a column at a time — flagged with the reason (value-, query-initiated
  or fan-out);
* :class:`CardinalityChange` — source → cache: an insertion or deletion,
  which the §3 architecture propagates immediately;
* :class:`MasterMigration` — source → cache: a tuple's master moved to a
  different shard (elastic rebalancing), so future refresh requests for
  it must be routed there.

Messages are plain frozen dataclasses, except the three every master
update may build — :class:`ObjectKey` (the dict key of the write path),
:class:`ColumnRefresh` and :class:`Refresh` — which are named tuples, so
they are built, hashed and compared in C; the simulation layer handles
delivery timing.  A refresh carries no per-object record: a
value-initiated push is one column of one tuple, a query-initiated
answer one array triple per bounded column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.bounds.functions import BoundShape

__all__ = [
    "RefreshReason",
    "ObjectKey",
    "RefreshRequest",
    "ColumnRefresh",
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
    #: cache: the source pushed the fresh master value to every sibling
    #: tracking the object, so one paid refresh tightens bounds
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
    """Cache → source: please refresh every bounded column of these tuples
    of one table now."""

    cache_id: str
    table: str
    tids: tuple[int, ...]


class ColumnRefresh(NamedTuple):
    """One column's share of a :class:`Refresh`: slot-aligned tuple ids,
    values at refresh ``V(T_r)`` and width parameters ``W``.

    ``values`` and ``widths`` are float64 arrays in a query-initiated
    answer and one-element tuples in a value-initiated push; a tuple id
    named twice keeps its last entry.
    """

    table: str
    column: str
    tids: Sequence[int]
    values: Sequence[float]
    widths: Sequence[float]


class Refresh(NamedTuple):
    """Source → cache: new exact values and bound functions, a column at
    a time.

    Every object in the message was refreshed at ``refreshed_at`` (the
    ``T_r`` of its bound function, also the send time) and widens with
    ``shape``, the sending source's.
    """

    source_id: str
    reason: RefreshReason
    columns: tuple[ColumnRefresh, ...]
    refreshed_at: float
    shape: BoundShape


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
    receiving cache repoints the tuple in its owner map at
    ``to_source_id``.  Bound functions are untouched — migration moves
    ownership, not values, so cached bounds stay valid throughout.
    """

    source_id: str
    table: str
    tid: int
    to_source_id: str
