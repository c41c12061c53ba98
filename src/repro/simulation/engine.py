"""The simulation engine: updates, queries, and bookkeeping over time.

:class:`SimulationEngine` drives a :class:`~repro.replication.system.TrappSystem`
with a stream of master-value updates (from random walks) and periodic
queries, recording per-query refresh costs and per-object refresh counts.
It is the substrate for the adaptive-width and refresh-delay experiments
and for the ``network_monitoring`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.answer import BoundedAnswer
from repro.replication.messages import ObjectKey
from repro.simulation.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replication.system import TrappSystem
from repro.simulation.events import EventQueue
from repro.simulation.random_walk import GaussianWalk, GeometricWalk, RandomWalk

__all__ = ["UpdateDriver", "QueryDriver", "SimulationEngine", "QueryRecord"]

Walk = RandomWalk | GaussianWalk | GeometricWalk


@dataclass(slots=True)
class UpdateDriver:
    """Applies one walk's steps to one master object on a fixed period."""

    source_id: str
    key: ObjectKey
    walk: Walk
    period: float = 1.0
    updates_applied: int = field(init=False, default=0)


@dataclass(slots=True)
class QueryRecord:
    """One executed query's outcome for later analysis."""

    time: float
    sql: str
    answer: BoundedAnswer


@dataclass(slots=True)
class QueryDriver:
    """Runs one SQL query against one cache on a fixed period."""

    cache_id: str
    sql: str
    period: float = 10.0
    records: list[QueryRecord] = field(init=False, default_factory=list)


class SimulationEngine:
    """Schedules update and query drivers over a TRAPP system."""

    def __init__(self, system: "TrappSystem | None" = None) -> None:
        if system is None:
            from repro.replication.system import TrappSystem

            system = TrappSystem()
        self.system = system
        self.clock: Clock = self.system.clock
        self.events = EventQueue(self.clock)
        self._update_drivers: list[UpdateDriver] = []
        self._query_drivers: list[QueryDriver] = []

    # ------------------------------------------------------------------
    def add_update_driver(self, driver: UpdateDriver) -> UpdateDriver:
        self._update_drivers.append(driver)
        self._schedule_update(driver)
        return driver

    def add_query_driver(self, driver: QueryDriver) -> QueryDriver:
        self._query_drivers.append(driver)
        self._schedule_query(driver)
        return driver

    # ------------------------------------------------------------------
    def run_until(self, when: float) -> None:
        """Advance simulated time, firing every due update and query."""
        self.events.run_until(when)

    # ------------------------------------------------------------------
    def _schedule_update(self, driver: UpdateDriver) -> None:
        def fire() -> None:
            source = self.system.source(driver.source_id)
            table = source.table(driver.key.table)
            if driver.key.tid not in table:
                return  # the object was deleted; the driver retires
            value = driver.walk.advance()
            source.apply_update(driver.key, value)
            driver.updates_applied += 1
            self.events.schedule(driver.period, fire)

        self.events.schedule(driver.period, fire)

    def _schedule_query(self, driver: QueryDriver) -> None:
        def fire() -> None:
            answer = self.system.query(driver.cache_id, driver.sql)
            driver.records.append(
                QueryRecord(time=self.clock.now(), sql=driver.sql, answer=answer)
            )
            self.events.schedule(driver.period, fire)

        self.events.schedule(driver.period, fire)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_updates(self) -> int:
        return sum(d.updates_applied for d in self._update_drivers)

    def total_queries(self) -> int:
        return sum(len(d.records) for d in self._query_drivers)

    def total_refresh_cost(self) -> float:
        return sum(
            record.answer.refresh_cost
            for driver in self._query_drivers
            for record in driver.records
        )
