"""Shared fixtures for the benchmark suite.

The stock-day workload is module-scoped: every Figure 5/6 style bench runs
against the same synthesized volatile day, exactly as the paper reuses its
one day of quotes.
"""

from __future__ import annotations

import pytest

from repro.replication import ColumnCostModel
from repro.workloads.stocks import (
    stock_cache_table,
    stock_master_table,
    volatile_stock_day,
)


@pytest.fixture(scope="session")
def stock_days():
    """The 90-ticker volatile day behind Figures 5 and 6."""
    return volatile_stock_day(n_stocks=90)


@pytest.fixture
def stock_cache(stock_days):
    return stock_cache_table(stock_days)


@pytest.fixture
def stock_master(stock_days):
    return stock_master_table(stock_days)


@pytest.fixture(scope="session")
def stock_cost():
    return ColumnCostModel("cost")
