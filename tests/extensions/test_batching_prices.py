"""Prices: the uniform price, the per-source minimum, and where a price
is refused.

Every refresh batch is priced by a :class:`BatchedCostModel`; the
paper's uniform model is :data:`UNIFORM_PRICE` (no setup, 1 per tuple).
A group's effective price is :func:`cheapest` of its members' prices,
checked here against its definition — the per-source ``min`` — and a
price that is not a :class:`BatchedCostModel` is refused where it is
given, before anything moves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refresh.costs import ColumnCostModel
from repro.errors import TrappError
from repro.extensions.batching import UNIFORM_PRICE, BatchedCostModel, cheapest
from repro.replication.cache import DataCache
from repro.replication.system import TrappSystem
from repro.service import QueryService
from repro.service.scheduler import RefreshScheduler
from repro.storage.schema import Schema
from repro.storage.table import Table

#: Source ids the drawn models may name; "unnamed" never is.
NAMED = ("s/0", "s/1", "s/2")

prices = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
by_source = st.none() | st.dictionaries(st.sampled_from(NAMED), prices, max_size=3)
models = st.builds(
    BatchedCostModel,
    setup=prices,
    marginal=prices,
    setup_by_source=by_source,
    marginal_by_source=by_source,
)


def test_uniform_price_is_the_paper_uniform_model():
    assert UNIFORM_PRICE.batch_cost("any", 7) == 7.0
    assert not UNIFORM_PRICE.amortizes
    assert BatchedCostModel(setup=0.0, setup_by_source={"a": 2.0}).amortizes


@settings(max_examples=200, deadline=None)
@given(st.lists(models, min_size=1, max_size=4), st.integers(0, 20))
def test_cheapest_is_the_per_source_minimum(drawn, n_tuples):
    price = cheapest(drawn)
    setups = []
    for source_id in (*NAMED, "unnamed"):
        setup = min(model.setup_for(source_id) for model in drawn)
        marginal = min(model.marginal_for(source_id) for model in drawn)
        assert price.setup_for(source_id) == setup
        assert price.marginal_for(source_id) == marginal
        assert price.batch_cost(source_id, n_tuples) == setup + marginal * n_tuples
        setups.append(setup)
    assert price.amortizes == any(setup > 0 for setup in setups)


def _master() -> Table:
    table = Table("t", Schema.of(x="bounded"))
    for value in (1.0, 2.0, 3.0):
        table.insert({"x": value})
    return table


def _group_system() -> tuple[TrappSystem, QueryService]:
    system = TrappSystem()
    system.add_source("s").add_table(_master())
    system.add_group("edge")
    system.add_cache("edge/0", shards={"t": "s"}, group="edge")
    return system, QueryService(system)


def _state(system: TrappSystem) -> tuple:
    group = system.group("edge")
    return (
        sorted(system._caches),
        sorted(system._groups),
        group.cache_ids(),
        dict(group._cost_models),
        system.telemetry,
    )


BAD = ColumnCostModel("cost")

ENTRY_POINTS = {
    "TrappSystem.add_cache": lambda system, service: system.add_cache(
        "edge/1", shards={"t": "s"}, group="edge", cost_model=BAD
    ),
    "TrappSystem.add_cache(new group)": lambda system, service: system.add_cache(
        "solo/0", shards={"t": "s"}, group="solo", cost_model=BAD
    ),
    "TrappSystem.admit_cache": lambda system, service: system.admit_cache(
        "edge/1", "edge", cost_model=BAD
    ),
    "TrappSystem.admit_cache(default_model)": lambda system, service: (
        system.admit_cache("edge/1", "edge", default_model=BAD)
    ),
    "CacheGroup.add_replica": lambda system, service: (
        system.group("edge").add_replica(DataCache("edge/1"), cost_model=BAD)
    ),
    "CacheGroup.admit_replica": lambda system, service: (
        system.group("edge").admit_replica(DataCache("edge/1"), cost_model=BAD)
    ),
    "QueryService(cost_model=)": lambda system, service: QueryService(
        system, cost_model=BAD
    ),
    "QueryService.admit_replica": lambda system, service: service.admit_replica(
        "edge", "edge/1", cost_model=BAD
    ),
    "RefreshScheduler(cost_model=)": lambda system, service: RefreshScheduler(
        cost_model=BAD
    ),
    "RefreshScheduler(cost_model=None)": lambda system, service: RefreshScheduler(
        cost_model=None
    ),
}


@pytest.mark.parametrize("entry_point", list(ENTRY_POINTS))
def test_a_price_that_is_not_a_batched_model_is_refused(entry_point):
    system, service = _group_system()
    before = _state(system)
    with pytest.raises(TrappError, match="BatchedCostModel"):
        ENTRY_POINTS[entry_point](system, service)
    assert _state(system) == before
    assert system.cache("edge/0").group is system.group("edge")
