"""Property: a sharded table answers bit-identically to its unsharded twin.

Sharding is a *physical* layout choice — the same logical table, the same
bound functions, the same planner inputs.  Two TRAPP deployments built
from identical master data, one with the classic 1:1 table↔source layout
and one with the table striped across N shards, must therefore return
the **same bounded answer to every query**: identical interval endpoints
(bit-for-bit — both sides evaluate the same bound functions in the same
tuple order), identical refreshed tuple sets, and identical uniform-cost
refresh spend.  Only the message routing may differ (N shard requests
instead of one).

This is the acceptance property for the sharded-sources tentpole: if it
holds, every §4/§5/§6 guarantee the executor proves for an unsharded
cache transfers to sharded deployments unchanged.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table

# A dyadic grid keeps every arithmetic comparison exact in binary
# floating point — the property certifies identical planning, not ulps.
grid = st.integers(min_value=-256, max_value=256).map(lambda k: k / 32.0)
grid_widths = st.integers(min_value=0, max_value=256).map(lambda k: k / 32.0)

AGGREGATES = ("SUM", "COUNT", "MIN", "MAX", "AVG")


@st.composite
def master_tables(draw):
    """A small master table over one bounded column (plus an exact one)."""
    n = draw(st.integers(min_value=1, max_value=10))
    table = Table("t", Schema.of(x="bounded", g="exact"))
    for index in range(n):
        table.insert({"x": draw(grid), "g": float(index % 3)})
    return table


def _build(master: Table, shards: int | None, age: float) -> TrappSystem:
    system = TrappSystem()
    source = system.add_source("s", shards=shards)
    source.add_table(master.copy())
    system.add_cache("c", shards={"t": "s"})
    system.clock.advance(age)
    system.cache("c").sync_bounds()
    return system


@settings(max_examples=60, deadline=None)
@given(
    master=master_tables(),
    n_shards=st.integers(min_value=2, max_value=5),
    aggregate=st.sampled_from(AGGREGATES),
    width_32nds=st.integers(min_value=0, max_value=640),
    age=st.sampled_from((0.0, 3.0, 48.0)),
    predicated=st.booleans(),
)
def test_sharded_answers_equal_unsharded(
    master, n_shards, aggregate, width_32nds, age, predicated
):
    unsharded = _build(master, None, age)
    sharded = _build(master, n_shards, age)

    column = "*" if aggregate == "COUNT" else "x"
    where = " WHERE g < 2" if predicated else ""
    sql = (
        f"SELECT {aggregate}({column}) WITHIN {width_32nds / 32.0} FROM t{where}"
    )

    baseline = unsharded.query("c", sql)
    candidate = sharded.query("c", sql)

    assert candidate.bound.lo == baseline.bound.lo
    assert candidate.bound.hi == baseline.bound.hi
    assert candidate.initial_bound.lo == baseline.initial_bound.lo
    assert candidate.initial_bound.hi == baseline.initial_bound.hi
    assert candidate.refreshed == baseline.refreshed
    # Uniform cost: spend is tuple count, so it must match exactly too.
    assert candidate.refresh_cost == baseline.refresh_cost

    # The physical routing *did* differ: the sharded cache really fanned
    # its subscriptions out (same logical answer, N-way layout).
    cache = sharded.cache("c")
    table = cache.table("t")
    expected_shards = min(n_shards, len(table))
    owners = {cache.source_of_tuple(table, tid) for tid in table.tids()}
    assert len(owners) == expected_shards
    assert len(cache.sources_of_table(table)) == n_shards
