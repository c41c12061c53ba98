"""Executor edge cases and error paths."""

import math

import pytest

from repro.core.bound import Bound
from repro.core.constraints import RelativePrecision
from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.errors import (
    ConstraintUnsatisfiableError,
    UnknownColumnError,
)
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import RowQueryExecutor


def make_tables():
    schema = Schema.of(x="bounded", region="text", cost="exact")
    cached = Table("t", schema)
    master = Table("t", schema)
    for bound, value, group in [
        (Bound(0, 10), 4.0, "a"),
        (Bound(5, 6), 5.5, "a"),
        (Bound(-3, 3), 0.0, "b"),
    ]:
        cached.insert({"x": bound, "region": group, "cost": 1.0})
        master.insert({"x": value, "region": group, "cost": 1.0})
    return cached, master


class TestNullProvider:
    def test_cached_only_queries_work(self):
        cached, _ = make_tables()
        refresher = NullRefreshProvider()  # answers from the cache alone
        answer = drive_steps(table_steps(cached, "SUM", "x", math.inf), refresher)
        assert answer.bound == Bound(2, 19)

    def test_refresh_needed_raises(self):
        cached, _ = make_tables()
        refresher = NullRefreshProvider()
        with pytest.raises(ConstraintUnsatisfiableError):
            drive_steps(table_steps(cached, "SUM", "x", 1.0), refresher)

    def test_null_provider_accepts_empty(self):
        cached, _ = make_tables()
        NullRefreshProvider().refresh(cached, [])


class TestValidation:
    def test_unknown_aggregation_column(self):
        cached, _ = make_tables()
        refresher = NullRefreshProvider()
        with pytest.raises(UnknownColumnError):
            drive_steps(table_steps(cached, "SUM", "ghost", 1.0), refresher)

    def test_missing_column_for_sum(self):
        cached, _ = make_tables()
        refresher = NullRefreshProvider()
        with pytest.raises(UnknownColumnError):
            drive_steps(table_steps(cached, "SUM", None, 1.0), refresher)

    def test_unknown_predicate_column(self):
        cached, _ = make_tables()
        refresher = NullRefreshProvider()
        with pytest.raises(UnknownColumnError):
            steps = table_steps(
                cached, "COUNT", None, 1.0, predicate=parse_predicate("ghost > 1")
            )
            drive_steps(steps, refresher)


class TestPredicateRegimeSelection:
    def test_text_predicate_uses_exact_path(self):
        cached, master = make_tables()
        refresher = LocalRefresher(master)
        steps = table_steps(
            cached, "COUNT", None, 0, predicate=parse_predicate("region = 'a'")
        )
        answer = drive_steps(steps, refresher)
        # Text columns are exact: COUNT needs no refresh at all.
        assert answer.bound == Bound.exact(2)
        assert not answer.refreshed

    def test_exact_bounded_column_uses_exact_path(self):
        """A bounded column whose values are all currently exact is treated
        as exact for predicate purposes."""
        schema = Schema.of(x="bounded", y="bounded")
        cached = Table("t", schema)
        cached.insert({"x": Bound.exact(5), "y": Bound(0, 100)})
        cached.insert({"x": Bound.exact(1), "y": Bound(0, 100)})
        refresher = NullRefreshProvider()
        steps = table_steps(
            cached, "COUNT", None, 0, predicate=parse_predicate("x > 3")
        )
        answer = drive_steps(steps, refresher)
        assert answer.bound == Bound.exact(1)

    def test_bounded_predicate_uses_classification(self):
        cached, master = make_tables()
        refresher = LocalRefresher(master)
        steps = table_steps(
            cached, "COUNT", None, 0, predicate=parse_predicate("x > 4")
        )
        answer = drive_steps(steps, refresher)
        # Master values: 4.0 (no), 5.5 (yes), 0.0 (no).
        assert answer.bound == Bound.exact(1)
        assert answer.refreshed  # uncertainty had to be resolved


class TestRefinement:
    def test_refine_bounds_tightens_same_column_predicate(self):
        schema = Schema.of(x="bounded")
        cached = Table("t", schema)
        cached.insert({"x": Bound(0, 20)})  # T? under x > 10
        cached.insert({"x": Bound(12, 14)})  # T+
        # The executor always refines; the oracle can leave it out.
        on_refresher = NullRefreshProvider()
        off = RowQueryExecutor(refine_bounds=False)
        predicate = parse_predicate("x > 10")
        steps = table_steps(cached, "MIN", "x", math.inf, predicate)
        bound_on = drive_steps(steps, on_refresher).bound
        bound_off = off.execute(cached, "MIN", "x", math.inf, predicate).bound
        # Refined: the T? tuple can only contribute values > 10.
        assert bound_on.lo == 10
        assert bound_off.lo == 0
        assert bound_on.hi == bound_off.hi == 14

    def test_refinement_never_loses_containment(self):
        cached, master = make_tables()
        refresher = LocalRefresher(master)
        steps = table_steps(cached, "SUM", "x", 2.0, predicate=parse_predicate("x > 1"))
        answer = drive_steps(steps, refresher)
        # Master truth: values > 1 are 4.0 and 5.5.
        assert answer.bound.contains(9.5)
        assert answer.width <= 2 + 1e-9


class TestRelativeConstraintThroughExecutor:
    def test_relative_resolved_against_first_pass(self):
        cached, master = make_tables()
        refresher = LocalRefresher(master)
        steps = table_steps(cached, "SUM", "x", RelativePrecision(0.3))
        answer = drive_steps(steps, refresher)
        # First pass [2, 19]: budget = 2 * 2 * 0.3 = 1.2.
        assert answer.width <= 1.2 + 1e-9
        assert answer.bound.contains(9.5)

    def test_a_straddling_bound_takes_one_tuple_rounds(self):
        """[-10, 230] straddles zero, so R = 0 is only provisional: the
        widest tuple alone moves the answer to [120, 140], whose own
        R = 24 it already meets.  Resolving R once, from the first bound,
        refreshed all eleven tuples."""
        schema = Schema.of(x="bounded")
        cached, master = Table("t", schema), Table("t", schema)
        cached.insert({"x": Bound(-100, 120)})
        master.insert({"x": 30.0})
        for _ in range(10):
            cached.insert({"x": Bound(9, 11)})
            master.insert({"x": 10.0})
        refresher = LocalRefresher(master)
        steps = table_steps(cached, "SUM", "x", RelativePrecision(0.1))
        answer = drive_steps(steps, refresher)
        assert answer.refreshed == {1}
        assert answer.bound == Bound(120, 140) and answer.bound.contains(130)
        assert RelativePrecision(0.1).satisfied_by(answer.bound)


class TestConstraintAlreadyMet:
    def test_exact_cache_answers_immediately(self):
        schema = Schema.of(x="bounded")
        cached = Table("t", schema)
        cached.insert({"x": Bound.exact(4)})
        refresher = NullRefreshProvider()
        answer = drive_steps(table_steps(cached, "AVG", "x", 0), refresher)
        assert answer.bound == Bound.exact(4)
        assert answer.initial_bound == answer.bound


class TestLocalRefresher:
    def test_refresh_unknown_tuple_rejected(self):
        cached, master = make_tables()
        from repro.errors import ReplicationProtocolError

        refresher = LocalRefresher(master)
        with pytest.raises(ReplicationProtocolError):
            refresher.refresh(cached, [99])

    def test_counts_and_costs(self):
        cached, master = make_tables()
        refresher = LocalRefresher(master, cost=lambda row: 2.0)
        refresher.refresh(cached, [1, 2])
        assert refresher.refresh_count == 2
        assert refresher.total_cost == 4.0
        assert cached.row(1).bound("x").is_exact
