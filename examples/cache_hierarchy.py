"""Multi-level cache hierarchies with cascading refreshes (§8.1).

Models the Web-caching architecture the paper cites: a data source, a
regional cache, and an edge cache, each level tolerating more staleness
(wider slack) than the one below.  Queries run at the edge; tight
precision constraints cascade refreshes down the chain toward the source,
and the example prints how far each query had to reach.

Run:  python examples/cache_hierarchy.py
"""

from repro.core.executor import drive_steps, table_steps
from repro.storage.schema import Schema
from repro.storage.table import Table
from section8.hierarchy import build_chain


def main():
    master = Table("sensors", Schema.of(reading="bounded", label="text"))
    readings = [42.0, 17.5, 63.2, 88.1, 29.9, 51.4, 70.3, 12.8]
    for i, value in enumerate(readings, start=1):
        master.insert({"reading": value, "label": f"sensor{i}"}, tid=i)

    root, (regional, edge) = build_chain(
        master, slacks=[1.0, 4.0], names=["regional", "edge"]
    )

    print("hierarchy: source -> regional (slack 1.0) -> edge (slack 4.0)")
    print(f"edge bound for sensor1   : {edge.current_bound('sensors', 1, 'reading')}")
    print(f"regional bound for sensor1: {regional.current_bound('sensors', 1, 'reading')}")
    print(f"true reading              : {readings[0]}")

    print("\nSUM(reading) at the edge, tightening the constraint:")
    print(f"  {'R':>6}  {'answer':>20}  {'edge->regional':>14}  {'regional->src':>13}  {'src reads':>9}")
    for budget in (100.0, 40.0, 10.0, 1.0, 0.0):
        edge_before = edge.forwarded_refreshes
        regional_before = regional.forwarded_refreshes
        root_before = root.exact_reads
        answer = drive_steps(table_steps(edge.table, "SUM", "reading", budget), edge)
        print(
            f"  {budget:>6g}  {str(answer.bound):>20}  "
            f"{edge.forwarded_refreshes - edge_before:>14}  "
            f"{regional.forwarded_refreshes - regional_before:>13}  "
            f"{root.exact_reads - root_before:>9}"
        )

    truth = sum(readings)
    print(f"\ntrue SUM = {truth:g}; every answer above contains it.")
    print(
        "Loose constraints are absorbed by the edge cache; only tight ones"
        "\ncascade to the regional level and ultimately the source — the"
        "\npaper's multi-level refresh picture."
    )


if __name__ == "__main__":
    main()
