"""The quiesced contract check: replies against brute force on master values.

After the timed phases the runner freezes the world (no clock, no
updates) and receives a dump of every master value.  The generator then
sends a few dozen statements covering every shape of the workload and
checks the paper's two inequalities on each reply — the exact answer
computed from master values lies inside ``[lo, hi]``, and ``width <= R``
unless the answer is flagged ``degraded`` — plus driver parity: the
bundled ``TrappClient`` must return the same interval as the raw NDJSON
driver for the same statement.

The evaluation below shares no code with the program: it reads the
statement's structure (``workloads.Statement``), never its SQL.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.service import TrappClient

import workloads

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}
#: Slack on containment: bounds are sums of thousands of endpoints.
_REL_TOL = 1e-9


@dataclass
class Failure:
    sql: str
    reason: str


def _rows(masters: dict, table: str) -> list[dict]:
    dump = masters[table]
    columns = dump["columns"]
    return [dict(zip(columns, row[1:])) for row in dump["rows"]]


def _holds(predicate: workloads.Pred | None, row: dict) -> bool:
    if predicate is None:
        return True
    right = predicate.offset
    if predicate.right is not None:
        right += predicate.scale * row[predicate.right]
    return _OPS[predicate.op](row[predicate.left], right)


def true_values(statement: workloads.Statement, masters: dict) -> list[float]:
    """Every exact value the reply's interval may legitimately contain.

    One value for scalar statements; for GROUP BY the wire carries only
    the widest group's interval, so any group's exact aggregate is
    admissible.
    """
    links = _rows(masters, "links")
    if statement.cls == "join":
        load = {row["node"]: row["load"] for row in _rows(masters, "nodes")}
        return [sum(load[r["to_node"]] for r in links if r["to_node"] in load)]
    selected = [row for row in links if _holds(statement.predicate, row)]
    if statement.cls == "groupby":
        groups: dict[object, float] = {}
        for row in selected:
            key = row[statement.group_by]
            groups[key] = groups.get(key, 0.0) + row[statement.column]
        return list(groups.values())
    if statement.aggregate == "COUNT":
        return [float(len(selected))]
    values = [row[statement.column] for row in selected]
    if statement.aggregate == "SUM":
        return [math.fsum(values)]
    if statement.aggregate == "AVG":
        return [math.fsum(values) / len(values)]
    if statement.aggregate == "MIN":
        return [min(values)]
    if statement.aggregate == "MAX":
        return [max(values)]
    ordered = sorted(values)
    if statement.aggregate == "MEDIAN":
        return [ordered[(len(ordered) - 1) // 2]]  # lower median
    if statement.aggregate == "TOPN":
        return [ordered[-statement.top_n]]
    raise ValueError(f"no oracle for aggregate {statement.aggregate!r}")


def _contains(lo: float, hi: float, value: float) -> bool:
    slack = _REL_TOL * max(1.0, abs(value), abs(lo), abs(hi))
    return lo - slack <= value <= hi + slack


def oracle_statements(
    workload: workloads.Workload, seed: int, ctx
) -> list[workloads.Statement]:
    """Fresh-budget statements cycling through every shape of the workload.

    Fresh budgets key fresh result-cache entries, so no reply can be an
    answer cached before the last master updates landed.
    """
    rng = workloads._rng(seed, workload, "oracle")
    shapes = workloads.SHAPES[workload.name]
    return [
        shapes[index % len(shapes)](ctx, ctx.allowance(rng))
        for index in range(workloads.ORACLE_STATEMENTS)
    ]


async def contract_check(
    generator, host: str, port: int, workload: workloads.Workload,
    statements: list[workloads.Statement], masters: dict,
) -> tuple[int, list[Failure]]:
    """Run the check; returns ``(statements checked, failures)``."""
    failures: list[Failure] = []
    client = await TrappClient.connect(host, port, client_id="oracle")
    try:
        for index, statement in enumerate(statements):
            sample = await generator.query(statement, workloads.user_id(index))
            if not sample.ok:
                failures.append(Failure(statement.sql, f"error {sample.error}"))
                continue
            truths = true_values(statement, masters)
            if not any(_contains(sample.lo, sample.hi, v) for v in truths):
                failures.append(
                    Failure(
                        statement.sql,
                        f"exact answer {truths[:3]} outside "
                        f"[{sample.lo!r}, {sample.hi!r}]",
                    )
                )
            if not sample.within_budget:
                failures.append(
                    Failure(
                        statement.sql,
                        f"width {sample.width!r} exceeds R without degraded",
                    )
                )
            # Same statement, bundled client, back to back: the world is
            # frozen, so the service must hand back the same interval.
            answer = await client.query(workload.target, statement.sql)
            if (answer.lo, answer.hi) != (sample.lo, sample.hi):
                failures.append(
                    Failure(
                        statement.sql,
                        f"TrappClient got [{answer.lo!r}, {answer.hi!r}], raw "
                        f"driver [{sample.lo!r}, {sample.hi!r}]",
                    )
                )
    finally:
        await client.close()
    return len(statements), failures
