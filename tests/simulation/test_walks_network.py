"""Unit tests for random walks."""

import random
import statistics

import pytest

from examples.section8.walks import GaussianWalk, GeometricWalk, RandomWalk
from repro.errors import SimulationError


class TestRandomWalk:
    def test_steps_are_plus_minus_step(self):
        walk = RandomWalk(value=0.0, step=2.0, rng=random.Random(1))
        previous = walk.value
        for _ in range(50):
            value = walk.advance()
            assert abs(value - previous) == pytest.approx(2.0)
            previous = value

    def test_clamping(self):
        walk = RandomWalk(
            value=0.0, step=1.0, rng=random.Random(1), minimum=0.0, maximum=2.0
        )
        for _ in range(100):
            value = walk.advance()
            assert 0.0 <= value <= 2.0

    def test_multi_step(self):
        walk = RandomWalk(value=0.0, step=1.0, rng=random.Random(3))
        walk.advance(steps=10)

    def test_validation(self):
        with pytest.raises(SimulationError):
            RandomWalk(value=0.0, step=-1.0)
        with pytest.raises(SimulationError):
            RandomWalk(value=0.0, minimum=5.0, maximum=1.0)

    def test_variance_grows_linearly(self):
        """The Appendix A premise: after T steps the spread is ~ s * sqrt(T)."""
        finals_short = []
        finals_long = []
        for seed in range(200):
            w = RandomWalk(value=0.0, step=1.0, rng=random.Random(seed))
            w.advance(steps=25)
            finals_short.append(w.value)
            w2 = RandomWalk(value=0.0, step=1.0, rng=random.Random(seed + 1000))
            w2.advance(steps=100)
            finals_long.append(w2.value)
        ratio = statistics.pstdev(finals_long) / statistics.pstdev(finals_short)
        assert 1.4 < ratio < 2.9  # ideal 2.0 for 4x the steps


class TestGaussianWalk:
    def test_respects_floor(self):
        walk = GaussianWalk(value=1.0, volatility=5.0, rng=random.Random(2), minimum=0.0)
        for _ in range(100):
            assert walk.advance() >= 0.0

    def test_negative_volatility_rejected(self):
        with pytest.raises(SimulationError):
            GaussianWalk(value=0.0, volatility=-1.0)


class TestGeometricWalk:
    def test_stays_positive(self):
        walk = GeometricWalk(value=100.0, sigma=0.1, rng=random.Random(4))
        for _ in range(200):
            assert walk.advance() > 0

    def test_positive_start_required(self):
        with pytest.raises(SimulationError):
            GeometricWalk(value=0.0)
