"""Multi-client closed-loop workloads for the concurrent query service.

Generates per-client TRAPP SQL scripts with controlled *overlap*: clients
draw most queries from a shared pool (the "many users watch the same hot
aggregates" regime the paper's Figure 3 architecture assumes), mixed with
client-private queries.  Overlap is what cross-query refresh coalescing
and the result cache monetize, so it is the workload's main knob.

The closed-loop driver models interactive users: each client issues its
next query only after the previous one completes, so offered load adapts
to service latency (the standard closed-loop benchmark discipline).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.workloads.queries import QuerySpec, QueryWorkload
from repro.storage.table import Table

__all__ = [
    "ClientScript",
    "ClosedLoopResult",
    "build_node_table",
    "closed_loop_scripts",
    "run_closed_loop",
]


@dataclass(frozen=True, slots=True)
class ClientScript:
    """One client's query sequence, as TRAPP SQL text."""

    client_id: str
    sqls: tuple[str, ...]


@dataclass(slots=True)
class ClosedLoopResult:
    """What one closed-loop run did: per-client completions and errors."""

    completed: int = 0
    errors: int = 0
    answers: list = field(default_factory=list)


def _spec_to_sql(spec: QuerySpec, table_name: str) -> str:
    target = spec.column if spec.column is not None else "*"
    where = f" WHERE {spec.predicate}" if spec.predicate is not None else ""
    return (
        f"SELECT {spec.aggregate}({target}) WITHIN {spec.max_width:g} "
        f"FROM {table_name}{where}"
    )


def _empty_safe(spec: QuerySpec) -> QuerySpec:
    """Keep predicate queries to aggregates defined over empty matches.

    MIN/MAX/AVG over a predicate that happens to match nothing have an
    unbounded answer ([-inf, inf]) that no refresh can narrow; a random
    serving workload must not manufacture those, so predicated queries are
    mapped onto SUM (or COUNT when there is no column).
    """
    if spec.predicate is not None and spec.aggregate in ("MIN", "MAX", "AVG"):
        aggregate = "SUM" if spec.column is not None else "COUNT"
        return QuerySpec(aggregate, spec.column, spec.max_width, spec.predicate)
    return spec


def closed_loop_scripts(
    table: Table,
    numeric_column: str,
    n_clients: int,
    queries_per_client: int,
    seed: int = 11,
    overlap: float = 0.75,
    pool_size: int | None = None,
    width_range: tuple[float, float] = (1.0, 100.0),
    predicate_rate: float = 0.5,
) -> list[ClientScript]:
    """Per-client SQL scripts over one table with tunable overlap.

    A shared pool of ``pool_size`` queries (default: one per client) is
    generated first; each client then draws from the pool with probability
    ``overlap`` and otherwise receives a private query.  ``seed`` makes the
    whole workload reproducible.
    """
    rng = random.Random(seed)
    generator = QueryWorkload(
        table=table,
        numeric_column=numeric_column,
        seed=rng.getrandbits(32),
        width_range=width_range,
        predicate_rate=predicate_rate,
    )
    pool_size = pool_size if pool_size is not None else max(1, n_clients)
    pool = [
        _spec_to_sql(_empty_safe(spec), table.name)
        for spec in generator.take(pool_size)
    ]
    scripts: list[ClientScript] = []
    for index in range(n_clients):
        sqls = []
        for _ in range(queries_per_client):
            if rng.random() < overlap:
                sqls.append(rng.choice(pool))
            else:
                sqls.append(
                    _spec_to_sql(_empty_safe(generator.next_query()), table.name)
                )
        scripts.append(ClientScript(client_id=f"client-{index:02d}", sqls=tuple(sqls)))
    return scripts


# ----------------------------------------------------------------------
# The join's second table
# ----------------------------------------------------------------------
def build_node_table(n_nodes: int, rng: random.Random) -> Table:
    """A master ``nodes`` table joining against netmon's ``links``.

    One row per node id with a bounded ``load`` metric — the §7 running
    example's second base table (links ⋈ nodes on ``to_node = node``).
    """
    from repro.storage.schema import Column, ColumnKind, Schema

    schema = Schema(
        [Column("node", ColumnKind.EXACT), Column("load", ColumnKind.BOUNDED)],
        name="nodes",
    )
    table = Table("nodes", schema)
    for node in range(1, n_nodes + 1):
        table.insert({"node": node, "load": rng.uniform(10.0, 100.0)})
    return table


async def run_closed_loop(
    issue: Callable[[str, str], Awaitable],
    scripts: list[ClientScript],
    on_error: Callable[[str, str, Exception], None] | None = None,
) -> ClosedLoopResult:
    """Drive every client's script concurrently, each client closed-loop.

    ``issue(client_id, sql)`` performs one query — against a
    :class:`~repro.service.service.QueryService` directly, or over the
    wire through a :class:`~repro.service.client.TrappClient`.  Errors are
    counted (and passed to ``on_error``) without stopping the client.
    """
    result = ClosedLoopResult()

    async def run_client(script: ClientScript) -> None:
        for sql in script.sqls:
            try:
                answer = await issue(script.client_id, sql)
            except Exception as exc:
                result.errors += 1
                if on_error is not None:
                    on_error(script.client_id, sql, exc)
            else:
                result.completed += 1
                result.answers.append(answer)

    await asyncio.gather(*(run_client(script) for script in scripts))
    return result
