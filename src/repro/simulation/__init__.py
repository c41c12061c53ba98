"""Discrete-event simulation substrate: clock, events, walks."""

from repro.simulation.clock import Clock
from repro.simulation.engine import (
    QueryDriver,
    QueryRecord,
    SimulationEngine,
    UpdateDriver,
)
from repro.simulation.events import Event, EventQueue
from repro.simulation.random_walk import GaussianWalk, GeometricWalk, RandomWalk

__all__ = [
    "Clock",
    "Event",
    "EventQueue",
    "RandomWalk",
    "GaussianWalk",
    "GeometricWalk",
    "SimulationEngine",
    "UpdateDriver",
    "QueryDriver",
    "QueryRecord",
]
