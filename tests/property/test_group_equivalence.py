"""Property: K caches behind one CacheGroup ≡ one cache, bit-identically.

Replication fan-out is a *physical* deployment choice — the same logical
table, the same bound functions, the same planner inputs.  A script of
queries spread across the replicas of a fan-out group must therefore
return the **same bounded answers as the same script against a single
cache**: identical interval endpoints (bit-for-bit), identical refreshed
tuple sets, and identical uniform-cost refresh spend, at every step of
the script.

The invariant that makes this hold: replicas subscribe in lockstep (same
registration order, same policy factories), and source-side fan-out
advances every sibling's width policy through the same feedback sequence
as the requester's whenever any replica pays for a refresh — so all K
replicas carry bit-identical bound state at all times, and which replica
a query lands on is unobservable in its answer.

This is the acceptance property for the replication fan-out tentpole: if
it holds, every §4/§5/§6 guarantee the executor proves for one cache
transfers to routed multi-cache deployments unchanged.

The second property extends the invariant to *elastic* membership
(ISSUE 9): a schedule interleaving queries, master writes, clock
advances, replica detaches, snapshot admissions, and master migrations
must still answer bit-identically to one static cache replaying only the
data-plane ops.  Detach and admit are pure topology — a departed
replica's state lives on in its lockstep siblings, and a snapshot-
admitted joiner enters lockstep mid-sequence — so the single static
cache never needs to model them.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.oracle.percell_sync import table_width_per_key

# A dyadic grid keeps every arithmetic comparison exact in binary
# floating point — the property certifies identical planning, not ulps.
grid = st.integers(min_value=-256, max_value=256).map(lambda k: k / 32.0)

AGGREGATES = ("SUM", "COUNT", "MIN", "MAX", "AVG")


@st.composite
def master_tables(draw):
    """A small master table over one bounded column (plus an exact one)."""
    n = draw(st.integers(min_value=1, max_value=10))
    table = Table("t", Schema.of(x="bounded", g="exact"))
    for index in range(n):
        table.insert({"x": draw(grid), "g": float(index % 3)})
    return table


@st.composite
def query_scripts(draw):
    """1–4 queries: (aggregate, WITHIN in 32nds, predicated)."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(AGGREGATES),
                st.integers(min_value=0, max_value=640),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )


def _build_single(master: Table, age: float) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s").add_table(master.copy())
    system.add_cache("c", shards={"t": "s"})
    system.clock.advance(age)
    system.cache("c").sync_bounds()
    return system


def _build_group(master: Table, n_caches: int, age: float) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s").add_table(master.copy())
    system.add_group("g")
    for index in range(n_caches):
        system.add_cache(f"g/{index}", shards={"t": "s"}, group="g")
    system.clock.advance(age)
    for cache in system.group("g"):
        cache.sync_bounds()
    return system


@settings(max_examples=50, deadline=None)
@given(
    master=master_tables(),
    n_caches=st.integers(min_value=2, max_value=4),
    script=query_scripts(),
    age=st.sampled_from((0.0, 3.0, 48.0)),
)
def test_group_answers_equal_single_cache(master, n_caches, script, age):
    single = _build_single(master, age)
    grouped = _build_group(master, n_caches, age)

    for step, (aggregate, width_32nds, predicated) in enumerate(script):
        column = "*" if aggregate == "COUNT" else "x"
        where = " WHERE g < 2" if predicated else ""
        sql = (
            f"SELECT {aggregate}({column}) WITHIN {width_32nds / 32.0} "
            f"FROM t{where}"
        )

        baseline = single.query("c", sql)
        # Rotate the script across the replicas: every step may land on a
        # different cache, yet no step may observe which.
        candidate = grouped.query(f"g/{step % n_caches}", sql)

        assert candidate.bound.lo == baseline.bound.lo
        assert candidate.bound.hi == baseline.bound.hi
        assert candidate.initial_bound.lo == baseline.initial_bound.lo
        assert candidate.initial_bound.hi == baseline.initial_bound.hi
        assert candidate.refreshed == baseline.refreshed
        # Uniform cost: spend is tuple count, so it must match exactly.
        assert candidate.refresh_cost == baseline.refresh_cost

    # The deployments really differed physically: the group wired
    # source-side fan-out, and every replica (not just the queried ones)
    # absorbed a push whenever any step paid for a refresh.
    assert grouped.source("s").refresh_fanout is grouped.group("g")
    refreshes = grouped.source("s").query_initiated_refreshes
    if refreshes:
        pushes = [
            cache.fanout_refreshes_received for cache in grouped.group("g")
        ]
        assert sum(pushes) == refreshes * (n_caches - 1)


# ----------------------------------------------------------------------
# Elastic membership: the K ≡ 1 property under live topology changes.
# ----------------------------------------------------------------------
N_SHARDS = 2
MAX_MEMBERS = 4


@st.composite
def membership_schedules(draw):
    """3–12 interleaved data-plane and membership ops.

    Ops are plain tuples so Hypothesis shrinks a failing schedule to the
    shortest op list with the smallest literals; ``_describe`` renders
    one token per op for the assertion message.  Row/shard indices are
    drawn wide and reduced modulo the live table at interpretation time,
    keeping every shrunk schedule valid.
    """
    op = st.one_of(
        st.tuples(
            st.just("query"),
            st.sampled_from(AGGREGATES),
            st.integers(min_value=0, max_value=640),
            st.booleans(),
        ),
        st.tuples(st.just("write"), st.integers(min_value=0, max_value=9), grid),
        st.tuples(st.just("advance"), st.sampled_from((1.0, 5.0))),
        st.tuples(st.just("detach")),
        st.tuples(st.just("admit")),
        st.tuples(
            st.just("migrate"),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=N_SHARDS - 1),
        ),
    )
    return draw(st.lists(op, min_size=3, max_size=12))


def _describe(schedule) -> str:
    """Shrink-friendly one-token-per-op rendering of a schedule."""
    parts = []
    for op in schedule:
        kind = op[0]
        if kind == "query":
            suffix = "?" if op[3] else ""
            parts.append(f"q:{op[1]}±{op[2] / 32.0:g}{suffix}")
        elif kind == "write":
            parts.append(f"w:#{op[1]}={op[2]:g}")
        elif kind == "advance":
            parts.append(f"+{op[1]:g}")
        elif kind == "migrate":
            parts.append(f"m:#{op[1]}→{op[2]}")
        else:
            parts.append(kind)
    return " ".join(parts)


def _build_single_sharded(master: Table, age: float) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s", shards=N_SHARDS).add_table(master.copy())
    system.add_cache("c", shards={"t": "s"})
    system.clock.advance(age)
    system.cache("c").sync_bounds()
    return system


def _build_group_sharded(master: Table, age: float) -> TrappSystem:
    system = TrappSystem()
    system.add_source("s", shards=N_SHARDS).add_table(master.copy())
    system.add_group("g")
    for index in range(2):
        system.add_cache(f"g/{index}", shards={"t": "s"}, group="g")
    system.clock.advance(age)
    for cache in system.group("g"):
        cache.sync_bounds()
    return system


@settings(max_examples=40, deadline=None)
@given(
    master=master_tables(),
    schedule=membership_schedules(),
    age=st.sampled_from((0.0, 3.0, 48.0)),
)
def test_membership_schedule_preserves_equivalence(master, schedule, age):
    """Queries answer bit-identically through detach/admit/migrate."""
    single = _build_single_sharded(master, age)
    grouped = _build_group_sharded(master, age)
    group = grouped.group("g")
    n_rows = len(master)
    admitted = 0

    for step, op in enumerate(schedule):
        kind = op[0]
        if kind == "query":
            _, aggregate, width_32nds, predicated = op
            column = "*" if aggregate == "COUNT" else "x"
            where = " WHERE g < 2" if predicated else ""
            sql = (
                f"SELECT {aggregate}({column}) "
                f"WITHIN {width_32nds / 32.0} FROM t{where}"
            )
            baseline = single.query("c", sql)
            # Rotate over the *current* members: which survivor answers
            # must be unobservable, even right after a detach or admit.
            members = sorted(group.cache_ids())
            candidate = grouped.query(members[step % len(members)], sql)
            context = f"step {step} of [{_describe(schedule)}]"
            assert candidate.bound.lo == baseline.bound.lo, context
            assert candidate.bound.hi == baseline.bound.hi, context
            assert candidate.refreshed == baseline.refreshed, context
            assert candidate.refresh_cost == baseline.refresh_cost, context
        elif kind == "write":
            tid = (op[1] % n_rows) + 1
            key = ObjectKey("t", tid, "x")
            single.source("s").apply_update(key, op[2])
            grouped.source("s").apply_update(key, op[2])
        elif kind == "advance":
            single.clock.advance(op[1])
            grouped.clock.advance(op[1])
            single.cache("c").sync_bounds()
            for cache in group:
                cache.sync_bounds()
        elif kind == "detach":
            members = sorted(group.cache_ids())
            if len(members) > 1:
                grouped.detach_cache(members[step % len(members)])
        elif kind == "admit":
            if len(group.cache_ids()) < MAX_MEMBERS:
                joiner, _ = grouped.admit_cache(f"g/a{admitted}", "g")
                admitted += 1
                # Snapshot admission must not touch the refresh ledger:
                # a joiner that cold-resubscribed would mint fresh
                # bounds and break lockstep at its first query.
                assert joiner.refresh_requests_sent == 0, (
                    f"joiner {joiner.cache_id} paid a cold "
                    f"resubscription in [{_describe(schedule)}]"
                )
        elif kind == "migrate":
            tid = (op[1] % n_rows) + 1
            # Both deployments share the shard layout, so the master
            # moves in lockstep too.
            single.source("s").migrate_master("t", tid, op[2])
            grouped.source("s").migrate_master("t", tid, op[2])

    # The group may have churned arbitrarily, but whatever members
    # remain must still carry bit-identical bound state: their uniform
    # widths for the whole table agree with the static cache's.
    expected = table_width_per_key(single.cache("c"), "t", single.clock.now())
    for cache_id in sorted(group.cache_ids()):
        width = table_width_per_key(
            group.cache(cache_id), "t", grouped.clock.now()
        )
        assert width == expected, (
            f"{cache_id} drifted from the static cache after "
            f"[{_describe(schedule)}]"
        )
