"""Adaptive bound widths balancing the two refresh pressures (Appendix A).

A narrow bound triggers value-initiated refreshes (the value escapes); a
wide bound triggers query-initiated refreshes (queries need precision).
This example runs the same volatile workload under three policies — a
too-narrow fixed width, a too-wide fixed width, and the adaptive
controller — and reports the refresh mix and totals for each, reproducing
the Appendix A "middle ground" behaviour.

Run:  python examples/adaptive_bounds.py
"""

import random

from repro.bounds.width import AdaptiveWidthController, FixedWidthPolicy
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.storage.schema import Schema
from repro.storage.table import Table
from section8.engine import QueryDriver, SimulationEngine, UpdateDriver
from section8.walks import GaussianWalk

HORIZON = 300.0
N_OBJECTS = 20
SEED = 77


def run_with_policy(label, policy_factory):
    rng = random.Random(SEED)
    master = Table("metrics", Schema.of(value="bounded", cost="exact"))
    for _ in range(N_OBJECTS):
        master.insert({"value": rng.uniform(0, 100), "cost": 1.0})

    system = TrappSystem()
    source = system.add_source("src", default_policy_factory=policy_factory)
    source.add_table(master)
    cache = system.add_cache("app")
    cache.subscribe_table(source, "metrics")

    engine = SimulationEngine(system)
    for tid in master.tids():
        engine.add_update_driver(
            UpdateDriver(
                source_id="src",
                key=ObjectKey("metrics", tid, "value"),
                walk=GaussianWalk(
                    value=master.row(tid).number("value"),
                    volatility=0.8,
                    rng=random.Random(rng.getrandbits(64)),
                ),
                period=1.0,
            )
        )
    engine.add_query_driver(
        QueryDriver("app", "SELECT SUM(value) WITHIN 40 FROM metrics", period=5.0)
    )
    engine.run_until(HORIZON)

    total = source.value_initiated_refreshes + source.query_initiated_refreshes
    print(
        f"  {label:<22} value-initiated {source.value_initiated_refreshes:>5}   "
        f"query-initiated {source.query_initiated_refreshes:>5}   "
        f"total {total:>5}"
    )
    return total


def main():
    print(
        f"{N_OBJECTS} random-walk objects, {HORIZON:.0f}s horizon, "
        "SUM query WITHIN 40 every 5s\n"
    )
    narrow = run_with_policy("fixed width 0.1", lambda: FixedWidthPolicy(0.1))
    wide = run_with_policy("fixed width 50", lambda: FixedWidthPolicy(50.0))
    adaptive = run_with_policy(
        "adaptive (App. A)",
        lambda: AdaptiveWidthController(initial_width=1.0, grow=2.0, shrink=0.7),
    )

    print("\nNarrow bounds hemorrhage value-initiated refreshes; wide bounds")
    print("push the cost onto queries.  The adaptive controller lands between")
    print("the fixed extremes without knowing the workload in advance:")
    print(f"  adaptive total {adaptive} vs fixed extremes {narrow} and {wide}")


if __name__ == "__main__":
    main()
