"""Random-walk update streams (paper Appendix A's update model).

Appendix A models each master value as a one-dimensional random walk —
small increments or decrements at each step ("escrow transactions") — and
derives the √t bound shape from the walk's √t standard-deviation growth.
This module provides that walk plus two variants used by the workloads:

* :class:`RandomWalk` — additive ±step walk, optionally clamped;
* :class:`GaussianWalk` — additive Gaussian increments (the continuum
  limit of the binomial walk);
* :class:`GeometricWalk` — multiplicative Gaussian steps, the standard
  intraday stock-price model backing the Figure 5/6 workload;

and :func:`link_walks`, one :class:`GaussianWalk` per metric of each
network link.

All walks draw from an injected :class:`random.Random` so experiments are
reproducible from a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.storage.table import Table

__all__ = ["RandomWalk", "GaussianWalk", "GeometricWalk", "link_walks"]


@dataclass(slots=True)
class RandomWalk:
    """Additive ±``step`` random walk with optional clamping."""

    value: float
    step: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    minimum: float = -math.inf
    maximum: float = math.inf

    def __post_init__(self) -> None:
        if self.step < 0:
            raise SimulationError(f"step must be non-negative, got {self.step}")
        if self.minimum > self.maximum:
            raise SimulationError("minimum exceeds maximum")
        self.value = min(max(self.value, self.minimum), self.maximum)

    def advance(self, steps: int = 1) -> float:
        """Take ``steps`` ±step moves; returns the new value."""
        for _ in range(steps):
            delta = self.step if self.rng.random() < 0.5 else -self.step
            self.value = min(max(self.value + delta, self.minimum), self.maximum)
        return self.value


@dataclass(slots=True)
class GaussianWalk:
    """Additive walk with N(drift, volatility²) increments per step."""

    value: float
    volatility: float = 1.0
    drift: float = 0.0
    rng: random.Random = field(default_factory=random.Random)
    minimum: float = -math.inf
    maximum: float = math.inf

    def __post_init__(self) -> None:
        if self.volatility < 0:
            raise SimulationError(
                f"volatility must be non-negative, got {self.volatility}"
            )

    def advance(self, steps: int = 1) -> float:
        for _ in range(steps):
            increment = self.rng.gauss(self.drift, self.volatility)
            self.value = min(max(self.value + increment, self.minimum), self.maximum)
        return self.value


@dataclass(slots=True)
class GeometricWalk:
    """Multiplicative walk: each step multiplies by ``exp(N(mu, sigma²))``.

    The standard geometric-Brownian-motion discretization for prices;
    values stay strictly positive.
    """

    value: float
    sigma: float = 0.01
    mu: float = 0.0
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise SimulationError(
                f"geometric walk requires a positive start, got {self.value}"
            )
        if self.sigma < 0:
            raise SimulationError(f"sigma must be non-negative, got {self.sigma}")

    def advance(self, steps: int = 1) -> float:
        for _ in range(steps):
            self.value *= math.exp(self.rng.gauss(self.mu, self.sigma))
        return self.value


def link_walks(
    table: Table, rng: random.Random, volatility: float = 0.5
) -> dict[tuple[int, str], GaussianWalk]:
    """Per-(tuple, metric) random walks seeded at a netmon ``links``
    table's master values.

    Metrics are clamped to stay physical (latency ≥ 0.1, bandwidth ≥ 1,
    traffic ≥ 0).
    """
    floors = {"latency": 0.1, "bandwidth": 1.0, "traffic": 0.0}
    walks: dict[tuple[int, str], GaussianWalk] = {}
    for row in table.rows():
        for metric, floor in floors.items():
            walks[(row.tid, metric)] = GaussianWalk(
                value=row.number(metric),
                volatility=volatility,
                rng=random.Random(rng.getrandbits(64)),
                minimum=floor,
            )
    return walks
