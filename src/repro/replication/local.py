"""A protocol-free refresher for examples, the golden figures and tests.

:class:`LocalRefresher` implements the executor's ``RefreshProvider``
interface directly against a *master* table held in the same process: a
refresh simply copies the master's exact value over the cached bound.  It
short-circuits the full source/cache message protocol, which is exactly
what the paper's §5.2.1 experiments do (they measure CHOOSE_REFRESH, not
network transfer), while counting cost the same way.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.refresh.base import CostFunc, candidate_costs
from repro.errors import ReplicationProtocolError
from repro.storage.table import Table

__all__ = ["LocalRefresher"]


class LocalRefresher:
    """Refreshes cached tuples from an in-process master table."""

    def __init__(self, master: Table, cost: CostFunc | None = None) -> None:
        self.master = master
        self.refresh_count = 0
        self.total_cost = 0.0
        self._cost = cost

    def refresh(self, table: Table, tids: Iterable[int]) -> None:
        tids = list(tids)
        for tid in tids:
            if tid not in self.master:
                raise ReplicationProtocolError(
                    f"master table {self.master.name!r} has no tuple #{tid}"
                )
            master_row = self.master.row(tid)
            for column in table.schema.bounded_columns:
                table.update_value(tid, column.name, master_row.number(column.name))
            self.refresh_count += 1
        if self._cost is not None and tids:
            at = np.searchsorted(table.columns.sorted_tids(), tids)
            self.total_cost = sum(
                candidate_costs(table, self._cost, at).tolist(), self.total_cost
            )
