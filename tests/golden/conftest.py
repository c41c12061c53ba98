"""The ``golden`` fixture, and the stock-day workload of Figures 5 and 6."""

from __future__ import annotations

import pytest

from repro.replication import ColumnCostModel
from repro.workloads.stocks import stock_cache_table, volatile_stock_day
from tests.golden.claims import CLAIMS, write_reproduction
from tests.golden.harness import GoldenValues


@pytest.fixture
def golden(request):
    """The golden file, opened on the prefixes this test's claims own."""
    values = GoldenValues(
        prefixes=tuple(
            claim.prefix
            for claim in CLAIMS
            if claim.prefix and claim.test == request.node.nodeid
        )
    )
    yield values
    if values.update_mode:
        values.save()
        write_reproduction()


@pytest.fixture(scope="session")
def stock_days():
    """The 90-ticker volatile day behind Figures 5 and 6: every bench
    ran against the same synthesized day, as the paper reuses its one
    day of quotes."""
    return volatile_stock_day(n_stocks=90)


@pytest.fixture
def stock_cache(stock_days):
    return stock_cache_table(stock_days)


@pytest.fixture(scope="session")
def stock_cost():
    return ColumnCostModel("cost")
