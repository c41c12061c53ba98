"""DataCache.refresh_batched: externally-batched plans with receipts."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReplicationProtocolError
from repro.extensions.batching import BatchedCostModel
from repro.replication.system import TrappSystem
from repro.workloads.netmon import build_master_table, generate_topology


def build(n_links=10, seed=3, age=50.0):
    rng = random.Random(seed)
    system = TrappSystem()
    source = system.add_source("s1")
    source.add_table(build_master_table(generate_topology(4, n_links, rng), rng))
    cache = system.add_cache("c1")
    cache.subscribe_table(source, "links")
    system.clock.advance(age)
    cache.sync_bounds()
    return system, source, cache


def test_receipt_reports_per_source_cost_actually_paid():
    system, source, cache = build()
    table = cache.table("links")
    tids = [row.tid for row in table.rows()][:4]
    receipt = cache.refresh_batched(
        table, tids, BatchedCostModel(setup=5.0, marginal=1.0)
    )
    assert receipt.requests_sent == 1
    assert receipt.tids == frozenset(tids)
    assert receipt.total_cost == pytest.approx(5.0 + 4.0)
    (per_source,) = receipt.per_source
    assert per_source.source_id == "s1"
    # Every bounded column of every tuple was refreshed.
    assert cache.refreshes_received == 4 * len(table.schema.bounded_columns)
    # The bounds actually collapsed.
    for tid in tids:
        assert table.row(tid).bound("traffic").width == 0.0


def test_default_accounting_is_one_per_tuple():
    system, source, cache = build()
    table = cache.table("links")
    receipt = cache.refresh_batched(table, [1, 2, 3])
    assert receipt.total_cost == pytest.approx(3.0)


def test_empty_and_duplicate_tids():
    system, source, cache = build()
    table = cache.table("links")
    empty = cache.refresh_batched(table, [])
    assert empty.per_source == ()
    assert empty.total_cost == 0.0
    assert empty.requests_sent == 0
    duplicated = cache.refresh_batched(table, [1, 1, 2, 2])
    assert duplicated.tids == frozenset({1, 2})
    assert duplicated.total_cost == pytest.approx(2.0)


def test_unknown_tuple_raises():
    system, source, cache = build()
    table = cache.table("links")
    with pytest.raises(ReplicationProtocolError):
        cache.refresh_batched(table, [9999])


def test_source_of_tuple():
    system, source, cache = build()
    table = cache.table("links")
    assert cache.source_of_tuple(table, 1) == "s1"
    with pytest.raises(ReplicationProtocolError):
        cache.source_of_tuple(table, 9999)


def test_refresh_delegates_to_batched_path():
    """The classic RefreshProvider entry point still collapses bounds and
    counts one request per source."""
    system, source, cache = build()
    table = cache.table("links")
    before = cache.refresh_requests_sent
    cache.refresh(table, [1, 2])
    assert cache.refresh_requests_sent == before + 1
    assert table.row(1).bound("latency").width == 0.0
