"""Tests for MEDIAN as a registered first-class aggregate."""

import itertools
import random

import pytest

import repro.extensions  # noqa: F401 - registers MEDIAN
from repro.core.aggregates import get_aggregate
from repro.core.bound import Bound
from repro.core.executor import QueryExecutor
from repro.core.refresh import get_choose_refresh
from repro.extensions.median_spec import MEDIAN, _extreme_median, median_of
from repro.predicates.ast import ColumnRef, Comparison, Literal
from repro.replication.local import LocalRefresher
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_eval import evaluate_exact
from tests.protocol import bound_of, classified, partitioned, plan_of


class TestRegistration:
    def test_aggregate_registered(self):
        assert get_aggregate("MEDIAN") is MEDIAN

    def test_chooser_registered(self):
        assert get_choose_refresh("median").name == "MEDIAN"


class TestExtremeMedian:
    def test_matches_brute_force(self):
        rng = random.Random(14)
        for _ in range(40):
            base = [rng.uniform(0, 10) for _ in range(rng.randint(1, 4))]
            optional = [rng.uniform(0, 10) for _ in range(rng.randint(0, 4))]
            lo = _extreme_median(base, optional, minimize=True)
            hi = _extreme_median(base, optional, minimize=False)
            best_lo = min(
                median_of(base + list(subset))
                for r in range(len(optional) + 1)
                for subset in itertools.combinations(optional, r)
            )
            best_hi = max(
                median_of(base + list(subset))
                for r in range(len(optional) + 1)
                for subset in itertools.combinations(optional, r)
            )
            assert lo == pytest.approx(best_lo)
            assert hi == pytest.approx(best_hi)

    def test_empty_base(self):
        assert _extreme_median([], [3.0, 7.0], minimize=True) == 3.0
        assert _extreme_median([], [3.0, 7.0], minimize=False) == 7.0


class TestMedianWithPredicate:
    def test_containment_exhaustive(self):
        bounds = [Bound(0, 4), Bound(2, 6), Bound(3, 5), Bound(1, 9)]
        table, _ = partitioned(plus=bounds)
        predicate = Comparison(ColumnRef("x"), ">", Literal(3.0))
        answer = bound_of(
            MEDIAN, table, "x", classified(table, predicate), predicate
        )
        for values in itertools.product(*[(b.lo, b.midpoint, b.hi) for b in bounds]):
            realized = [Row(i + 1, {"x": v}) for i, v in enumerate(values)]
            passing = [r.number("x") for r in realized
                       if evaluate_exact(predicate, r)]
            if passing:
                truth = median_of(passing)
                assert answer.contains(truth), values

    def test_refresh_guarantee_randomized(self):
        rng = random.Random(21)
        chooser = get_choose_refresh("MEDIAN")
        for _ in range(20):
            bounds = [
                Bound(lo, lo + rng.uniform(0, 5))
                for lo in (rng.uniform(0, 10) for _ in range(6))
            ]
            predicate = Comparison(ColumnRef("x"), ">", Literal(rng.uniform(0, 10)))
            budget = rng.uniform(0.5, 4)
            table, _ = partitioned(plus=bounds)
            plan = plan_of(
                chooser, table, "x", budget,
                pair=classified(table, predicate), predicate=predicate,
            )
            for _ in range(8):
                realized, _ = partitioned(
                    plus=[
                        Bound.exact(rng.uniform(b.lo, b.hi)) if tid in plan.tids else b
                        for tid, b in enumerate(bounds, start=1)
                    ]
                )
                pair = classified(realized, predicate)
                if len(pair[0]) or len(pair[1]):
                    answer = bound_of(MEDIAN, realized, "x", pair, predicate)
                    assert answer.width <= budget + 1e-6


class TestMedianThroughExecutor:
    def test_sql_median_end_to_end(self):
        schema = Schema.of(x="bounded", cost="exact")
        cached = Table("t", schema)
        master = Table("t", schema)
        values = [5.0, 10.0, 15.0, 20.0, 25.0]
        for v in values:
            cached.insert({"x": Bound(v - 3, v + 3), "cost": 1.0})
            master.insert({"x": v, "cost": 1.0})
        executor = QueryExecutor(refresher=LocalRefresher(master))
        answer = executor.execute(cached, "MEDIAN", "x", 1.0)
        assert answer.width <= 1 + 1e-9
        assert answer.bound.contains(15.0)

    def test_median_via_trapp_system(self):
        from repro.replication.system import TrappSystem

        schema = Schema.of(x="bounded", cost="exact")
        master = Table("t", schema)
        for v in (1.0, 2.0, 3.0):
            master.insert({"x": v, "cost": 1.0})
        system = TrappSystem()
        source = system.add_source("s")
        source.add_table(master)
        cache = system.add_cache("c")
        cache.subscribe_table(source, "t")
        system.clock.advance(25.0)
        answer = system.query("c", "SELECT MEDIAN(x) WITHIN 0 FROM t")
        assert answer.bound == Bound.exact(2.0)
