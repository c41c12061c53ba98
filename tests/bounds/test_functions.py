"""Unit tests for time-varying bound functions (Appendix A)."""

import math
import random

import pytest

from examples.section8.walks import RandomWalk
from repro.bounds.functions import (
    SHAPES,
    BoundFunction,
    ConstantShape,
    LinearShape,
    SqrtShape,
)
from repro.errors import BoundError


class TestShapes:
    def test_sqrt(self):
        shape = SqrtShape()
        assert shape(0) == 0
        assert shape(4) == 2
        assert shape(-1) == 0  # clamped

    def test_linear(self):
        shape = LinearShape()
        assert shape(0) == 0
        assert shape(3) == 3

    def test_constant(self):
        shape = ConstantShape()
        assert shape(0) == 0
        assert shape(0.001) == 1
        assert shape(100) == 1

    def test_registry(self):
        assert set(SHAPES) == {"sqrt", "linear", "constant"}

    def test_sqrt_concavity(self):
        """The paper's footnote: the shape has negative second derivative —
        early widening is fast, later widening slows."""
        shape = SqrtShape()
        early = shape(1) - shape(0)
        late = shape(100) - shape(99)
        assert early > late


class TestBoundFunction:
    def test_zero_width_at_refresh_time(self):
        bf = BoundFunction(value_at_refresh=10, width_parameter=2, refreshed_at=5)
        bound = bf.at(5)
        assert bound.is_exact
        assert bound.lo == 10

    def test_widens_over_time(self):
        bf = BoundFunction(value_at_refresh=10, width_parameter=2, refreshed_at=0)
        assert bf.at(1).width == pytest.approx(4.0)  # 2 * sqrt(1) each side
        assert bf.at(4).width == pytest.approx(8.0)
        assert bf.at(4).midpoint == 10

    def test_evaluation_before_refresh_rejected(self):
        bf = BoundFunction(value_at_refresh=10, width_parameter=2, refreshed_at=5)
        with pytest.raises(BoundError):
            bf.at(4.9)

    def test_negative_width_rejected(self):
        with pytest.raises(BoundError):
            BoundFunction(0, -1, 0)

    def test_contains(self):
        bf = BoundFunction(value_at_refresh=0, width_parameter=1, refreshed_at=0)
        assert bf.contains(0.5, now=1)
        assert not bf.contains(5, now=1)

    def test_encode_decode_roundtrip(self):
        bf = BoundFunction(3.5, 0.7, 12.0, LinearShape())
        payload = bf.encode()
        assert payload == (3.5, 0.7, 12.0)
        back = BoundFunction.decode(payload, LinearShape())
        assert back.at(20) == bf.at(20)

    def test_half_width_at(self):
        bf = BoundFunction(0, 3, 0)
        assert bf.half_width_at(4) == pytest.approx(6.0)
        assert bf.half_width_at(-1) == 0.0


class TestRandomWalkCoverage:
    """The Appendix A claim: a sqrt-shaped bound with adequate width keeps a
    random walk inside with high probability."""

    def test_sqrt_bound_contains_walk_mostly(self):
        rng = random.Random(99)
        horizon = 400
        escapes = 0
        trials = 60
        # Chebyshev at P=5%: W = s / sqrt(0.05) ≈ 4.47 s; use s=1.
        width = 1.0 / math.sqrt(0.05)
        for _ in range(trials):
            walk = RandomWalk(value=0.0, step=1.0, rng=random.Random(rng.getrandbits(64)))
            bf = BoundFunction(0.0, width, 0.0)
            for t in range(1, horizon + 1):
                value = walk.advance()
                if not bf.contains(value, now=t):
                    escapes += 1
                    break
        # Union over the horizon makes per-step 5% loose; what we check is
        # the qualitative Appendix A claim: most walks never escape.
        assert escapes < trials * 0.5

    def test_sqrt_tracks_walk_better_than_constant_of_same_final_width(self):
        """With equal width at the horizon, the sqrt shape is tighter at
        every earlier time — the reason the paper prefers it."""
        horizon = 100.0
        w = 2.0
        sqrt_bf = BoundFunction(0, w, 0, SqrtShape())
        const_bf = BoundFunction(0, w * math.sqrt(horizon), 0, ConstantShape())
        assert sqrt_bf.at(horizon).width == pytest.approx(const_bf.at(horizon).width)
        for t in (1, 10, 50, 99):
            assert sqrt_bf.at(t).width < const_bf.at(t).width
