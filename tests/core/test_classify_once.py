"""Row-level classification happens at most once per query.

The seed executor recomputed the T+/T?/T− partition three times per query
(initial bound, CHOOSE_REFRESH, final bound).  The executor now works on
the column arrays and never calls the row-level
:func:`repro.predicates.classify.classify` at all; the row-at-a-time
oracle (``tests/oracle/row_executor.py``) calls it exactly once and
updates the refreshed T? tuples in place.
"""

import importlib
import math

import pytest

import tests.oracle.row_executor as oracle_module
from repro.core.bound import Bound
from repro.core.executor import QueryExecutor
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import RowQueryExecutor

# ``repro.predicates.classify`` the attribute is the function (the package
# re-exports it); the module is only reachable by name.
classify_module = importlib.import_module("repro.predicates.classify")


@pytest.fixture
def classify_counter(monkeypatch):
    calls = {"n": 0}
    original = classify_module.classify

    def counting(rows, predicate):
        calls["n"] += 1
        return original(rows, predicate)

    # Where the function lives, and where the oracle bound it by name.
    monkeypatch.setattr(classify_module, "classify", counting)
    monkeypatch.setattr(oracle_module, "classify", counting)
    return calls


def make_tables(n=40):
    schema = Schema.of(x="bounded")
    cached = Table("t", schema)
    master = Table("t", schema)
    for i in range(n):
        lo = float(i % 10)
        cached.insert({"x": Bound(lo, lo + 4.0)})
        master.insert({"x": lo + 2.0})
    return cached, master


PREDICATE = parse_predicate("x > 5")


class TestColumnarPath:
    def test_no_classify_calls_without_refresh(self, classify_counter):
        cached, _ = make_tables()
        QueryExecutor().execute(cached, "SUM", "x", math.inf, PREDICATE)
        assert classify_counter["n"] == 0

    def test_no_classify_calls_with_refresh(self, classify_counter):
        cached, master = make_tables()
        executor = QueryExecutor(refresher=LocalRefresher(master))
        answer = executor.execute(cached, "SUM", "x", 3.0, PREDICATE)
        assert answer.refreshed  # the query really went through step 2
        assert classify_counter["n"] == 0


class TestRowPath:
    def test_single_classify_without_refresh(self, classify_counter):
        cached, _ = make_tables()
        RowQueryExecutor().execute(cached, "SUM", "x", math.inf, PREDICATE)
        assert classify_counter["n"] == 1

    def test_single_classify_with_refresh(self, classify_counter):
        cached, master = make_tables()
        executor = RowQueryExecutor(refresher=LocalRefresher(master))
        answer = executor.execute(cached, "SUM", "x", 3.0, PREDICATE)
        assert answer.refreshed
        assert classify_counter["n"] == 1
        assert answer.width <= 3.0 + 1e-6

    def test_incremental_reclassification_matches_full(self, classify_counter):
        """The post-refresh incremental partition yields the same answer a
        fresh classification would."""
        cached, master = make_tables()
        executor = RowQueryExecutor(refresher=LocalRefresher(master))
        answer = executor.execute(cached, "COUNT", None, 0.0, PREDICATE)
        # After refreshing, COUNT under the predicate must be exact: every
        # T? tuple was resolved to T+ or T-.
        assert answer.bound.is_exact
        truth = sum(1 for row in master.rows() if row.number("x") > 5)
        assert answer.bound == Bound.exact(truth)
        assert classify_counter["n"] == 1


class TestNoPredicateNeverClassifies:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_plain_aggregate(self, classify_counter, columnar):
        cached, master = make_tables()
        executor_type = QueryExecutor if columnar else RowQueryExecutor
        executor = executor_type(refresher=LocalRefresher(master))
        executor.execute(cached, "SUM", "x", 5.0)
        assert classify_counter["n"] == 0
