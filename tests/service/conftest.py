"""Shared builders for the service-layer tests.

Deployments use the simulated clock: subscribing leaves zero-width
bounds, so tests advance time (``age``) to widen them before querying —
queries then exercise real refreshes through the scheduler.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.replication.cache import BatchedRefreshReceipt, SourceRefreshReceipt
from repro.replication.system import TrappSystem
from repro.workloads.netmon import build_master_table, generate_topology

CACHE_ID = "monitor"


def build_netmon_system(
    n_links: int = 30, seed: int = 1, age: float = 100.0
) -> TrappSystem:
    rng = random.Random(seed)
    system = TrappSystem()
    source = system.add_source("net")
    n_nodes = max(2, n_links // 3)
    source.add_table(
        build_master_table(generate_topology(n_nodes, n_links, rng), rng)
    )
    cache = system.add_cache(CACHE_ID)
    cache.subscribe_table(source, "links")
    if age > 0:
        system.clock.advance(age)
        cache.sync_bounds()
    return system


@pytest.fixture
def netmon_system() -> TrappSystem:
    return build_netmon_system()


def park_ticks(service, delay: float):
    """Hold every refresh tick of ``service`` for ``delay`` seconds before
    it dispatches, so that a test can act while queries wait inside it.
    Wraps the scheduler instance's ``_run_tick`` only; returns ``service``."""
    run_tick = service.scheduler._run_tick

    async def parked(batch):
        await asyncio.sleep(delay)
        await run_tick(batch)

    service.scheduler._run_tick = parked
    return service


class FakeCache:
    """Records batched refreshes; sources assigned per tid via a mapping."""

    def __init__(self, source_by_tid: dict[int, str]):
        self.source_by_tid = source_by_tid
        self.calls: list[frozenset[int]] = []

    def source_of_tuple(self, table, tid: int) -> str:
        return self.source_by_tid[tid]

    def sources_of_table(self, table) -> list[str]:
        return sorted(set(self.source_by_tid.values()))

    def refresh_batched(self, table, tids, batch_cost=None):
        tids = frozenset(tids)
        self.calls.append(tids)
        by_source: dict[str, set[int]] = {}
        for tid in tids:
            by_source.setdefault(self.source_by_tid[tid], set()).add(tid)
        receipts = []
        for source_id, source_tids in sorted(by_source.items()):
            cost = (
                batch_cost(source_id, len(source_tids))
                if batch_cost is not None
                else float(len(source_tids))
            )
            receipts.append(
                SourceRefreshReceipt(
                    source_id=source_id,
                    tids=frozenset(source_tids),
                    cost=cost,
                )
            )
        return BatchedRefreshReceipt(per_source=tuple(receipts))


def scheduler_events(scheduler, event: str) -> int:
    """One ``trapp_scheduler_events_total{event}`` count of a scheduler."""
    return int(
        scheduler.registry.value_of("trapp_scheduler_events_total", event=event)
    )


def cost_paid(scheduler) -> float:
    """A scheduler's ``trapp_refresh_cost_paid_total``."""
    return scheduler.registry.value_of("trapp_refresh_cost_paid_total")


def fault_events(scheduler, event: str) -> int:
    """One ``trapp_fault_events_total{event}`` count of a scheduler."""
    return int(scheduler.registry.value_of("trapp_fault_events_total", event=event))


def degraded_answers(service) -> int:
    """A service's ``trapp_degraded_answers_total``."""
    return int(service.telemetry.registry.value_of("trapp_degraded_answers_total"))


def metric(snapshot: dict, name: str, **labels: str) -> float:
    """One counter sample of a ``metrics`` wire snapshot (0 when absent)."""
    for family in snapshot["families"]:
        if family["name"] == name:
            for sample in family["samples"]:
                if sample["labels"] == labels:
                    return sample["value"]
    return 0.0
