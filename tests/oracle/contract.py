"""The paper's contract, checked against brute force on master values.

Two inequalities hold for every answer (§1.3, §5–§7): the exact answer
computed from the master tables lies inside the returned bound, and the
bound's width meets the precision constraint R unless the answer is
flagged ``degraded``.  Truth is the ``math.fsum`` of master values —
correctly rounded — and containment is :meth:`Bound.contains`, with no
tolerance; the width is judged by :meth:`BoundedAnswer.meets`, the test
the executor certifies its own answers with.  Under a §8.1 relative
constraint ``P`` the budget is ``2 · min|a| · P`` over the answer
interval — zero when it holds zero — which bounds ``2 · |A| · P`` for
every ``A`` the answer admits.

A :class:`Statement` is read by its structure, never by its SQL: the
evaluation below shares nothing with the program's parser, classifier or
aggregates.  It knows the two tables of ``repro.workloads.netmon`` and
``repro.workloads.service.build_node_table`` — ``links`` and the
``links ⋈ nodes`` join on ``to_node = node``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.core.answer import BoundedAnswer
from repro.storage.table import Table

__all__ = ["Statement", "contract_violations", "exact_answers"]

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class Statement:
    """One TRAPP SQL statement over ``links`` (or ``links ⋈ nodes``)."""

    aggregate: str
    column: str | None
    within: float
    #: ``(column, op, literal)`` over ``links``.
    where: tuple[str, str, float] | None = None
    group_by: str | None = None
    top_n: int | None = None
    #: ``SUM(load) FROM links, nodes WHERE to_node = node``.
    join: bool = False
    #: ``within`` is a relative precision ``P`` (§8.1), not a width.  No
    #: SQL spells it: :attr:`sql` states the statement with ``WITHIN P``
    #: and the driver swaps in ``RelativePrecision(P)``.
    relative: bool = False

    @property
    def sql(self) -> str:
        if self.join:
            return (
                f"SELECT {self.aggregate}({self.column}) WITHIN {self.within!r} "
                "FROM links, nodes WHERE to_node = node"
            )
        if self.top_n is not None:
            target = f"{self.top_n}, {self.column}"
        else:
            target = self.column or "*"
        sql = f"SELECT {self.aggregate}({target}) WITHIN {self.within!r} FROM links"
        if self.where is not None:
            column, op, literal = self.where
            sql += f" WHERE {column} {op} {literal!r}"
        if self.group_by is not None:
            sql += f" GROUP BY {self.group_by}"
        return sql


def _aggregate(statement: Statement, values: list[float]) -> float:
    name = statement.aggregate
    if name == "COUNT":
        return float(len(values))
    if name == "SUM":
        return math.fsum(values)
    if name == "AVG":
        return math.fsum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    ordered = sorted(values)
    if name == "MEDIAN":
        return ordered[(len(ordered) - 1) // 2]  # the lower median
    if name == "TOPN":
        return ordered[-statement.top_n]
    raise ValueError(f"no oracle for aggregate {name!r}")


def exact_answers(statement: Statement, masters: dict[str, Table]) -> dict:
    """The exact answer per group key: ``{(): value}`` for a scalar
    statement, ``{(key,): value}`` per group under GROUP BY (whose
    statements here carry no predicate, so every group is non-empty)."""
    links = [row.as_dict() for row in masters["links"].rows()]
    if statement.join:
        load = {row["node"]: row["load"] for row in masters["nodes"].rows()}
        joined = [load[r["to_node"]] for r in links if r["to_node"] in load]
        return {(): math.fsum(joined)}
    if statement.where is not None:
        column, op, literal = statement.where
        links = [r for r in links if _OPS[op](r[column], literal)]
    groups: dict[tuple, list[float]] = {}
    for row in links:
        key = () if statement.group_by is None else (row[statement.group_by],)
        groups.setdefault(key, []).append(
            row[statement.column] if statement.column is not None else 1.0
        )
    if statement.group_by is None and not groups:
        groups[()] = []
    return {key: _aggregate(statement, values) for key, values in groups.items()}


def contract_violations(
    statement: Statement, answer: BoundedAnswer, truths: list[dict]
) -> list[str]:
    """Every way ``answer`` breaks the paper's contract (empty if none).

    ``truths`` holds :func:`exact_answers` as the master stood during
    each call into the statement's step generator, in order.  A scalar
    answer is assembled in the last call and must contain the last
    truth; GROUP BY answers its groups one call after another, so each
    group must contain its truth as of one of the calls.
    """
    if statement.group_by is None:
        answers, truths = {(): answer}, truths[-1:]
    else:
        answers = {group.key: group.answer for group in answer.groups}
    problems = []
    for key in truths[-1].keys() | answers.keys():
        got = answers.get(key)
        if got is None:
            problems.append(f"group {key!r} is missing from the answer")
            continue
        exact = [truth[key] for truth in truths if key in truth]
        if not any(got.bound.contains(value) for value in exact):
            problems.append(f"group {key!r}: exact {exact!r} outside {got.bound}")
        budget = _budget(statement, got)
        if not got.degraded and not got.meets(budget):
            problems.append(
                f"group {key!r}: width {got.width!r} exceeds WITHIN "
                f"{budget!r} without degraded"
            )
    return problems


def _budget(statement: Statement, answer: BoundedAnswer) -> float:
    if not statement.relative:
        return statement.within
    lo, hi = answer.bound.lo, answer.bound.hi
    if lo <= 0.0 <= hi:
        return 0.0
    return 2.0 * min(abs(lo), abs(hi)) * statement.within
