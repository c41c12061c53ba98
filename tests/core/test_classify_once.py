"""Classification happens at most once per bound.

The seed executor recomputed the T+/T?/T− partition three times per query
(initial bound, CHOOSE_REFRESH, final bound).  The executor now classifies
the column arrays once before the refresh — the initial bound and
CHOOSE_REFRESH share that partition — and once after it, and never calls
a row-level classifier at all; the row-at-a-time oracle
(``tests/oracle/row_executor.py``) calls its
:func:`tests.oracle.row_protocol.classify` exactly once and updates the
refreshed T? tuples in place.
"""

import math

import pytest

import repro.core.executor as executor_module
import tests.oracle.row_executor as oracle_module
from repro.core.bound import Bound
from repro.core.executor import NullRefreshProvider, drive_steps, table_steps
from repro.predicates.parser import parse_predicate
from repro.replication.local import LocalRefresher
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.row_executor import RowQueryExecutor


@pytest.fixture
def classify_counter(monkeypatch):
    """Counts row classifications (``n``) and array ones (``reports``)."""
    calls = {"n": 0, "reports": 0}
    row_classify = oracle_module.classify
    classify_report = executor_module.classify_report

    def counting(rows, predicate):
        calls["n"] += 1
        return row_classify(rows, predicate)

    def counting_report(store, predicate):
        calls["reports"] += 1
        return classify_report(store, predicate)

    # Where each executor bound its classifier by name.
    monkeypatch.setattr(oracle_module, "classify", counting)
    monkeypatch.setattr(executor_module, "classify_report", counting_report)
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
        steps = table_steps(cached, "SUM", "x", math.inf, PREDICATE)
        drive_steps(steps, NullRefreshProvider())
        assert classify_counter["n"] == 0
        assert classify_counter["reports"] == 1

    def test_no_classify_calls_with_refresh(self, classify_counter):
        cached, master = make_tables()
        steps = table_steps(cached, "SUM", "x", 3.0, PREDICATE)
        answer = drive_steps(steps, LocalRefresher(master))
        assert answer.refreshed  # the query really went through step 2
        assert classify_counter["n"] == 0
        assert classify_counter["reports"] == 2  # steps 1 + 2 share one


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
        steps_of = table_steps if columnar else RowQueryExecutor().execute_steps
        drive_steps(steps_of(cached, "SUM", "x", 5.0), LocalRefresher(master))
        assert classify_counter["n"] == 0
        assert classify_counter["reports"] == 0
