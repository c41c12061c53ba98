"""Multi-level replication: hierarchies of caches (paper §8.1 extension).

The paper sketches TRAPP over cache *hierarchies* — each object lives at
one source with a chain of caches between it and the user (the Web-caching
architecture): "Refreshes would then occur between a cache and the caches
or sources one level below, with a possible cascading effect."

:class:`HierarchicalCache` implements one level of such a chain:

* it holds, per object, the bound it last obtained from its **parent**
  (a source-backed :class:`LevelRoot` or another ``HierarchicalCache``),
  widened by its own staleness policy;
* it implements the executor's ``RefreshProvider`` interface, so queries
  run against any level;
* a query-initiated refresh asks the parent for its *current* bound; if
  the parent's own bound is wider than the child's target width, the
  request **cascades** upward, ultimately reaching the root, which reads
  the exact master value.

Invariant (tested): every level's bound for an object contains the bound
of every level below it, and hence the master value — so bounded answers
computed at any level are guaranteed, just progressively looser at higher
(more distant) levels.

Each level tracks how many refresh requests it forwarded upward, making
the cascade observable in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.core.bound import Bound
from repro.errors import ReplicationProtocolError
from repro.storage.table import Table

__all__ = ["LevelParent", "LevelRoot", "HierarchicalCache", "build_chain"]


class LevelParent(Protocol):
    """What a hierarchy level needs from the level below it."""

    def current_bound(self, table_name: str, tid: int, column: str) -> Bound:
        """The parent's current bound for one object (no refresh)."""
        ...

    def tighten(self, table_name: str, tid: int, column: str, max_width: float) -> Bound:
        """Return a bound of width <= max_width, refreshing upward as needed."""
        ...

    def table_schema(self, table_name: str):
        ...

    def object_ids(self, table_name: str) -> list[int]:
        ...


class LevelRoot:
    """The hierarchy's root: wraps the master table (the data source)."""

    def __init__(self, master: Table) -> None:
        self.master = master
        self.exact_reads = 0

    def current_bound(self, table_name: str, tid: int, column: str) -> Bound:
        self._check(table_name)
        return Bound.exact(self.master.row(tid).number(column))

    def tighten(self, table_name: str, tid: int, column: str, max_width: float) -> Bound:
        self._check(table_name)
        self.exact_reads += 1
        return Bound.exact(self.master.row(tid).number(column))

    def table_schema(self, table_name: str):
        self._check(table_name)
        return self.master.schema

    def object_ids(self, table_name: str) -> list[int]:
        self._check(table_name)
        return self.master.tids()

    def _check(self, table_name: str) -> None:
        if table_name != self.master.name:
            raise ReplicationProtocolError(
                f"root serves table {self.master.name!r}, not {table_name!r}"
            )


@dataclass(slots=True)
class _CachedObject:
    bound: Bound


class HierarchicalCache:
    """One cache level: bounds derived from the parent, widened by slack.

    ``slack`` models this level's staleness allowance: the bound stored
    here is the parent's bound widened symmetrically by ``slack`` (so the
    parent may drift that far before this level must hear about it —
    the per-level analogue of a bound function's width).  ``slack = 0``
    makes the level a transparent mirror.
    """

    def __init__(
        self, name: str, parent: LevelParent, table_name: str, slack: float = 0.0
    ) -> None:
        if slack < 0:
            raise ReplicationProtocolError(f"slack must be non-negative, got {slack}")
        self.name = name
        self.parent = parent
        self.table_name = table_name
        self.slack = slack
        self.forwarded_refreshes = 0
        self._objects: dict[tuple[int, str], _CachedObject] = {}
        schema = parent.table_schema(table_name)
        self.table = Table(table_name, schema)
        self._populate()

    # ------------------------------------------------------------------
    def _populate(self) -> None:
        for tid in self.parent.object_ids(self.table_name):
            values = {}
            for column in self.table.schema:
                if column.is_bounded:
                    bound = self.parent.current_bound(
                        self.table_name, tid, column.name
                    ).widen(self.slack)
                    self._objects[(tid, column.name)] = _CachedObject(bound)
                    values[column.name] = bound
                else:
                    values[column.name] = self._parent_exact(tid, column.name)
            self.table.insert(values, tid=tid)

    def _parent_exact(self, tid: int, column: str):
        parent = self.parent
        # Exact/text columns replicate verbatim from the root's table.
        while isinstance(parent, HierarchicalCache):
            parent = parent.parent
        assert isinstance(parent, LevelRoot)
        return parent.master.row(tid)[column]

    # ------------------------------------------------------------------
    # LevelParent protocol (so further levels can stack on this one)
    # ------------------------------------------------------------------
    def current_bound(self, table_name: str, tid: int, column: str) -> Bound:
        self._check(table_name)
        return self._objects[(tid, column)].bound

    def tighten(self, table_name: str, tid: int, column: str, max_width: float) -> Bound:
        """Ensure this level's bound is at most ``max_width`` wide."""
        self._check(table_name)
        entry = self._objects[(tid, column)]
        if entry.bound.width <= max_width:
            return entry.bound
        # This level must hear from its parent.  The parent's bound must be
        # narrow enough that adding our slack stays within the target; the
        # parent answers from its own cache when possible and cascades
        # upward otherwise — the §8.1 cascading effect.
        parent_budget = max(0.0, max_width - 2 * self.slack)
        self.forwarded_refreshes += 1
        parent_bound = self.parent.tighten(table_name, tid, column, parent_budget)
        # Take as much staleness allowance as the target width permits: a
        # width-0 target stores the parent bound verbatim (refresh-time
        # collapse); otherwise widen up to the level's slack.
        allowance = min(self.slack, max(0.0, (max_width - parent_bound.width) / 2))
        entry.bound = parent_bound.widen(allowance)
        self.table.update_value(tid, column, entry.bound)
        return entry.bound

    def table_schema(self, table_name: str):
        self._check(table_name)
        return self.table.schema

    def object_ids(self, table_name: str) -> list[int]:
        self._check(table_name)
        return self.table.tids()

    # ------------------------------------------------------------------
    # RefreshProvider protocol (so the executor can query this level)
    # ------------------------------------------------------------------
    def refresh(self, table: Table, tids: Iterable[int]) -> None:
        """Query-initiated refresh at this level: collapse to width 0.

        Width 0 at this level forces a cascade all the way to the root
        (each intermediate level needs an exact parent bound); the bound
        stored here becomes the exact master value.
        """
        for tid in tids:
            for column in table.schema.bounded_columns:
                bound = self.tighten(self.table_name, tid, column.name, 0.0)
                if table is not self.table and tid in table:
                    table.update_value(tid, column.name, bound)

    # ------------------------------------------------------------------
    def _check(self, table_name: str) -> None:
        if table_name != self.table_name:
            raise ReplicationProtocolError(
                f"cache {self.name!r} serves table {self.table_name!r}, "
                f"not {table_name!r}"
            )

    def __repr__(self) -> str:
        return (
            f"HierarchicalCache({self.name!r}, slack={self.slack}, "
            f"{len(self.table)} objects)"
        )


def build_chain(
    master: Table, slacks: list[float], names: list[str] | None = None
) -> tuple[LevelRoot, list[HierarchicalCache]]:
    """Build a root plus a chain of cache levels with the given slacks.

    ``slacks[0]`` is the level closest to the source; the returned list is
    ordered root-adjacent first.  The last element is the leaf level users
    query.
    """
    root = LevelRoot(master)
    levels: list[HierarchicalCache] = []
    parent: LevelParent = root
    for i, slack in enumerate(slacks):
        name = names[i] if names else f"level{i + 1}"
        level = HierarchicalCache(name, parent, master.name, slack=slack)
        levels.append(level)
        parent = level
    return root, levels
