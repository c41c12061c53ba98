"""Tests for delayed churn propagation (§8.3) and piggybacking/pre-refresh."""

import itertools
import random

import pytest

from examples.section8.cardinality import ChurnBuffer, PendingChurn, churn_adjusted
from examples.section8.prerefresh import (
    Piggyback,
    PiggybackPolicy,
    edge_risk,
    pre_refresh_candidates,
)
from repro.core.bound import Bound
from repro.errors import TrappError

DOMAIN = Bound(0.0, 100.0)


class TestChurnBuffer:
    def test_pending_counts(self):
        buffer = ChurnBuffer(max_pending=10)
        buffer.record_insert(1, {"x": 1.0})
        buffer.record_insert(2, {"x": 2.0})
        buffer.record_delete(3)
        assert buffer.pending() == PendingChurn(inserts=2, deletes=1)
        assert buffer.pending().total == 3

    def test_flush_on_overflow(self):
        flushed = []
        buffer = ChurnBuffer(max_pending=2, flush_callback=flushed.extend)
        buffer.record_insert(1, {})
        buffer.record_insert(2, {})
        assert not flushed
        buffer.record_delete(3)  # exceeds max_pending=2 -> flush
        assert len(flushed) == 3
        assert buffer.pending().total == 0
        assert buffer.flushes == 1

    def test_explicit_flush(self):
        buffer = ChurnBuffer()
        buffer.record_insert(1, {})
        drained = buffer.flush()
        assert len(drained) == 1
        assert buffer.flush() == []  # idempotent on empty


class TestChurnAdjusted:
    def test_no_churn_is_identity(self):
        bound = Bound(5, 9)
        assert churn_adjusted("SUM", bound, PendingChurn(), 4, DOMAIN) == bound

    def test_count(self):
        adjusted = churn_adjusted(
            "COUNT", Bound(3, 5), PendingChurn(inserts=2, deletes=1), 4, DOMAIN
        )
        assert adjusted == Bound(2, 7)

    def test_infinite_domain_rejected(self):
        with pytest.raises(TrappError):
            churn_adjusted(
                "SUM", Bound(0, 1), PendingChurn(inserts=1), 1, Bound.unbounded()
            )

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(TrappError):
            churn_adjusted("MODE", Bound(0, 1), PendingChurn(inserts=1), 1, DOMAIN)

    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM", "MIN", "MAX", "AVG"])
    def test_containment_under_realized_churn(self, aggregate):
        """Exhaustively realize buffered churn and check containment."""
        rng = random.Random(9)
        for _ in range(30):
            cached = [rng.uniform(0, 100) for _ in range(rng.randint(1, 5))]
            inserts = rng.randint(0, 2)
            deletes = rng.randint(0, min(2, len(cached)))
            churn = PendingChurn(inserts=inserts, deletes=deletes)

            cached_bound = _exact_aggregate(aggregate, cached)
            adjusted = churn_adjusted(
                aggregate, cached_bound, churn, len(cached), DOMAIN
            )

            # Realize: delete any subset of size `deletes`, insert values
            # anywhere in the domain.
            for del_combo in itertools.combinations(range(len(cached)), deletes):
                remaining = [v for i, v in enumerate(cached) if i not in del_combo]
                for _ in range(5):
                    inserted = [rng.uniform(DOMAIN.lo, DOMAIN.hi) for _ in range(inserts)]
                    final = remaining + inserted
                    if not final and aggregate in ("MIN", "MAX", "AVG"):
                        continue  # aggregate undefined on empty set
                    truth = _truth(aggregate, final)
                    assert adjusted.lo - 1e-9 <= truth <= adjusted.hi + 1e-9, (
                        aggregate, cached, del_combo, inserted
                    )


def _exact_aggregate(aggregate, values):
    return Bound.exact(_truth(aggregate, values))


def _truth(aggregate, values):
    if aggregate == "COUNT":
        return float(len(values))
    if aggregate == "SUM":
        return sum(values)
    if aggregate == "MIN":
        return min(values)
    if aggregate == "MAX":
        return max(values)
    if aggregate == "AVG":
        return sum(values) / len(values)
    raise AssertionError(aggregate)


class TestEdgeRisk:
    def test_center_is_safe(self):
        assert edge_risk(5.0, Bound(0, 10)) == 0.0

    def test_edge_is_maximal(self):
        assert edge_risk(10.0, Bound(0, 10)) == 1.0
        assert edge_risk(0.0, Bound(0, 10)) == 1.0

    def test_outside_is_maximal(self):
        assert edge_risk(11.0, Bound(0, 10)) == 1.0

    def test_zero_width_is_maximal(self):
        assert edge_risk(5.0, Bound.exact(5)) == 1.0

    def test_monotone_toward_edge(self):
        risks = [edge_risk(v, Bound(0, 10)) for v in (5, 6, 7, 8, 9, 10)]
        assert risks == sorted(risks)


class TestPiggybackPolicy:
    def test_selects_most_endangered(self):
        policy = PiggybackPolicy(risk_threshold=0.5, max_extra=2)
        tracked = [
            ("safe", 5.0, Bound(0, 10)),     # risk 0
            ("edgy", 9.9, Bound(0, 10)),     # risk 0.98
            ("close", 8.0, Bound(0, 10)),    # risk 0.6
            ("outside", 12.0, Bound(0, 10)), # risk 1.0
        ]
        extras = policy.select(set(), tracked)
        assert extras == ["outside", "edgy"]

    def test_requested_excluded(self):
        policy = PiggybackPolicy(risk_threshold=0.0, max_extra=10)
        tracked = [("a", 9.9, Bound(0, 10)), ("b", 9.9, Bound(0, 10))]
        extras = policy.select({"a"}, tracked)
        assert extras == ["b"]

    def test_validation(self):
        with pytest.raises(TrappError):
            PiggybackPolicy(risk_threshold=1.5)
        with pytest.raises(TrappError):
            PiggybackPolicy(max_extra=-1)


class TestPreRefreshCandidates:
    def test_ranks_and_caps(self):
        tracked = [
            ("a", 9.5, Bound(0, 10)),
            ("b", 5.0, Bound(0, 10)),
            ("c", 9.9, Bound(0, 10)),
        ]
        assert pre_refresh_candidates(tracked, budget=1) == ["c"]
        assert pre_refresh_candidates(tracked, budget=5) == ["c", "a"]

    def test_negative_budget_rejected(self):
        with pytest.raises(TrappError):
            pre_refresh_candidates([], budget=-1)


class TestPiggybackIntegration:
    def test_source_piggybacks_endangered_objects(self):
        """End-to-end: a source with a piggyback policy refreshes near-edge
        objects alongside the requested one, preventing imminent
        value-initiated refreshes."""
        from repro.bounds.width import FixedWidthPolicy
        from repro.replication.cache import DataCache
        from repro.replication.source import DataSource
        from repro.simulation.clock import Clock
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        clock = Clock()
        master = Table("t", Schema.of(x="bounded"))
        for v in (10.0, 20.0, 30.0):
            master.insert({"x": v})
        source = DataSource(
            "s",
            clock=clock.now,
            default_policy_factory=lambda: FixedWidthPolicy(1.0),
        )
        piggyback = Piggyback(
            PiggybackPolicy(risk_threshold=0.8, max_extra=5)
        ).install(source)
        source.add_table(master)
        cache = DataCache("c", clock=clock.now)
        cache.subscribe_table(source, "t")

        # Push object 2's master value to the edge of its cached bound
        # WITHOUT escaping it: bound at t=1 is 20 +- 1*sqrt(1).
        clock.advance(1.0)
        from repro.replication.messages import ObjectKey

        source.apply_update(ObjectKey("t", 2, "x"), 20.95)
        assert source.value_initiated_refreshes == 0  # still inside

        # A query-initiated refresh of object 1 piggybacks object 2.
        cache.refresh(cache.table("t"), [1])
        assert piggyback.refreshes >= 1
        cache.sync_bounds()
        bound = cache.table("t").row(2).bound("x")
        assert bound.contains(20.95)
        assert bound.midpoint == pytest.approx(20.95)
