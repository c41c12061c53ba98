"""Shared fixtures: the paper's Figure 2 example data and helpers."""

from __future__ import annotations

import pytest

from repro.replication import ColumnCostModel
from repro.replication.local import LocalRefresher
from repro.workloads.netmon import (
    paper_costs,
    paper_example_table,
    paper_master_table,
)


@pytest.fixture
def cached_links():
    """The cached ``links`` table of Figure 2 (bounds)."""
    return paper_example_table()


@pytest.fixture
def master_links():
    """The master ``links`` table of Figure 2 (precise values)."""
    return paper_master_table()


@pytest.fixture
def link_costs():
    """Tuple id -> refresh cost, per Figure 2."""
    return paper_costs()


@pytest.fixture
def cost_func():
    """Cost function reading the Figure 2 ``cost`` column."""
    return ColumnCostModel("cost")


@pytest.fixture
def refresher(master_links):
    """A LocalRefresher backed by the Figure 2 master values."""
    return LocalRefresher(master_links)
