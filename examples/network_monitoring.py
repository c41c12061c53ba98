"""Network monitoring over a live simulated WAN (the paper's §1.1 scenario).

Generates a 40-node / 80-link topology, runs every link's latency,
bandwidth, and traffic as a random walk at the sources, and has a
monitoring station issue TRAPP/AG queries with different precision
constraints while time advances.  Shows value-initiated vs query-initiated
refresh counts and how the precision constraint controls query cost.

Run:  python examples/network_monitoring.py
"""

import random

from repro.replication import ColumnCostModel
from repro.replication.messages import ObjectKey
from repro.replication.system import TrappSystem
from repro.simulation.engine import QueryDriver, SimulationEngine, UpdateDriver
from repro.workloads.netmon import build_master_table, generate_topology, link_walks

N_NODES = 40
N_LINKS = 80
SEED = 2000
HORIZON = 120.0


def main():
    rng = random.Random(SEED)
    links = generate_topology(N_NODES, N_LINKS, rng)
    master_table = build_master_table(links, rng)

    system = TrappSystem()
    source = system.add_source("backbone")
    source.add_table(master_table)
    cache = system.add_cache("noc")  # the network operations center
    cache.subscribe_table(source, "links")

    engine = SimulationEngine(system)

    # Every link metric drifts as a Gaussian walk, one update per second.
    walks = link_walks(master_table, rng, volatility=0.4)
    for (tid, metric), walk in walks.items():
        engine.add_update_driver(
            UpdateDriver(
                source_id="backbone",
                key=ObjectKey("links", tid, metric),
                walk=walk,
                period=1.0,
            )
        )

    # Three administrators with different precision needs.
    queries = [
        ("coarse dashboard", "SELECT AVG(traffic) WITHIN 20 FROM links", 10.0),
        ("capacity planner", "SELECT MIN(bandwidth) WITHIN 5 FROM links", 15.0),
        (
            "alert screener",
            "SELECT COUNT(*) WITHIN 2 FROM links WHERE latency > 15",
            12.0,
        ),
    ]
    drivers = []
    for name, sql, period in queries:
        drivers.append(
            (name, engine.add_query_driver(QueryDriver("noc", sql, period=period)))
        )

    print(f"Simulating {N_LINKS} links for {HORIZON:.0f}s of virtual time...")
    engine.run_until(HORIZON)

    print(f"\nupdates applied at sources : {engine.total_updates()}")
    print(f"value-initiated refreshes  : {source.value_initiated_refreshes}")
    print(f"query-initiated refreshes  : {source.query_initiated_refreshes}")

    for name, driver in drivers:
        widths = [r.answer.width for r in driver.records]
        refreshed = [len(r.answer.refreshed) for r in driver.records]
        print(f"\n{name}: {driver.records[0].sql}")
        print(f"  queries executed        : {len(driver.records)}")
        print(f"  mean answer width       : {sum(widths) / len(widths):.2f}")
        print(
            f"  mean tuples refreshed   : "
            f"{sum(refreshed) / len(refreshed):.1f} of {N_LINKS}"
        )
        last = driver.records[-1].answer
        print(f"  latest answer           : {last.bound}")

    print(
        "\nEvery answer above is a guaranteed interval: the true aggregate of"
        "\nthe live master values was inside it at query time."
    )


if __name__ == "__main__":
    main()
