"""Symbolic ``Possible``/``Certain`` predicate transforms (Appendix D).

Given a predicate ``P`` over columns that may hold bounded values, the
paper defines two derived predicates expressed purely over interval
*endpoints*:

* ``Certain(P)`` — true only for tuples guaranteed to satisfy ``P`` under
  every realization of their bounds (membership in ``T+``);
* ``Possible(P)`` — true for tuples that might satisfy ``P`` under some
  realization (membership in ``T+ ∪ T?``).

The translation follows the paper's Figure 8 table:

========================  ==============================  =========================
expression E              Possible(E)                     Certain(E)
========================  ==============================  =========================
``x = y``                 ``x.lo <= y.hi ∧ x.hi >= y.lo`` ``x.lo = x.hi = y.lo = y.hi``
``x < y``                 ``x.lo < y.hi``                 ``x.hi < y.lo``
``x <= y``                ``x.lo <= y.hi``                ``x.hi <= y.lo``
``¬E``                    ``¬Certain(E)``                 ``¬Possible(E)``
``E1 ∨ E2``               ``Possible(E1) ∨ Possible(E2)`` ``Certain(E1) ∨ Certain(E2)``
``E1 ∧ E2``               ``Possible(E1) ∧ Possible(E2)`` ``Certain(E1) ∧ Certain(E2)``
========================  ==============================  =========================

(Conjunction for ``Possible`` and disjunction for ``Certain`` are sound
implications rather than equivalences; misclassification can only push a
tuple into ``T?``, affecting optimality, never correctness.)

The transforms produce *endpoint predicates*: ordinary two-valued
predicates over terms that reference a named endpoint (``lo``/``hi``) of
each bounded column.  They can therefore be evaluated with a plain
row scan — or, as the paper suggests, compiled into SQL and served by
endpoint indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal as TypingLiteral

from repro.core.bound import Bound
from repro.errors import PredicateError, PredicateTypeError
from repro.predicates.ast import (
    And,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    Term,
    TruePredicate,
)
from repro.storage.row import Row
from tests.oracle.row_eval import resolve_column, term_bound

__all__ = [
    "EndpointRef",
    "EndpointComparison",
    "EndpointPredicate",
    "possible",
    "certain",
    "evaluate_endpoint",
    "endpoint_sql",
]

Side = TypingLiteral["lo", "hi"]


@dataclass(frozen=True, slots=True)
class EndpointRef:
    """A reference to one endpoint of a term's interval value.

    For a literal or exact column both endpoints coincide with the value;
    for a bounded column ``lo``/``hi`` select the interval endpoints, with
    the term's linear transform applied afterwards (a positive ``scale``
    preserves endpoint order; a negative one swaps lo and hi, which the
    constructor accounts for by swapping the requested side).
    """

    term: Term
    side: Side

    def value(self, row: Row) -> float | str:
        if isinstance(self.term, Literal):
            return self.term.value
        raw = resolve_column(row, self.term)
        if isinstance(raw, str):
            return raw
        bound = raw if isinstance(raw, Bound) else Bound.exact(float(raw))
        mapped = term_bound(self.term, bound)
        return mapped.lo if self.side == "lo" else mapped.hi

    def __str__(self) -> str:
        if isinstance(self.term, Literal):
            return str(self.term)
        return f"{self.term}.{self.side}"


@dataclass(frozen=True, slots=True)
class EndpointComparison:
    """A two-valued comparison between interval endpoints.

    ``from_equality`` marks the ``<=``/``>=`` comparisons the Figure 8
    translation of value-level ``=``/``!=`` produces.  Only those may
    compare strings (text values are exact, so the lexicographic checks
    conjoin to plain equality); a user-written order comparison on
    strings stays rejected, matching the three-valued evaluator.
    """

    left: EndpointRef
    op: str
    right: EndpointRef
    from_equality: bool = False

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class EndpointNot:
    operand: "EndpointPredicate"

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True, slots=True)
class EndpointAnd:
    left: "EndpointPredicate"
    right: "EndpointPredicate"

    def __str__(self) -> str:
        return f"({self.left}) AND ({self.right})"


@dataclass(frozen=True, slots=True)
class EndpointOr:
    left: "EndpointPredicate"
    right: "EndpointPredicate"

    def __str__(self) -> str:
        return f"({self.left}) OR ({self.right})"


@dataclass(frozen=True, slots=True)
class EndpointTrue:
    def __str__(self) -> str:
        return "TRUE"


EndpointPredicate = (
    EndpointComparison | EndpointNot | EndpointAnd | EndpointOr | EndpointTrue
)


def _lo(term: Term) -> EndpointRef:
    return EndpointRef(term, "lo")


def _hi(term: Term) -> EndpointRef:
    return EndpointRef(term, "hi")


def _possible_comparison(cmp: Comparison) -> EndpointPredicate:
    x, y = cmp.left, cmp.right
    if cmp.op == "<":
        return EndpointComparison(_lo(x), "<", _hi(y))
    if cmp.op == "<=":
        return EndpointComparison(_lo(x), "<=", _hi(y))
    if cmp.op == ">":
        return EndpointComparison(_hi(x), ">", _lo(y))
    if cmp.op == ">=":
        return EndpointComparison(_hi(x), ">=", _lo(y))
    if cmp.op == "=":
        return EndpointAnd(
            EndpointComparison(_lo(x), "<=", _hi(y), from_equality=True),
            EndpointComparison(_hi(x), ">=", _lo(y), from_equality=True),
        )
    if cmp.op == "!=":
        # Possible(x != y) = NOT Certain(x = y)
        return EndpointNot(_certain_comparison(Comparison(x, "=", y)))
    raise PredicateError(f"unknown comparison operator {cmp.op!r}")


def _certain_comparison(cmp: Comparison) -> EndpointPredicate:
    x, y = cmp.left, cmp.right
    if cmp.op == "<":
        return EndpointComparison(_hi(x), "<", _lo(y))
    if cmp.op == "<=":
        return EndpointComparison(_hi(x), "<=", _lo(y))
    if cmp.op == ">":
        return EndpointComparison(_lo(x), ">", _hi(y))
    if cmp.op == ">=":
        return EndpointComparison(_lo(x), ">=", _hi(y))
    if cmp.op == "=":
        # Certain only when both intervals are the same single point.
        return EndpointAnd(
            EndpointAnd(
                EndpointComparison(_lo(x), "=", _hi(x)),
                EndpointComparison(_lo(y), "=", _hi(y)),
            ),
            EndpointComparison(_lo(x), "=", _lo(y)),
        )
    if cmp.op == "!=":
        # Certain(x != y) = NOT Possible(x = y)
        return EndpointNot(_possible_comparison(Comparison(x, "=", y)))
    raise PredicateError(f"unknown comparison operator {cmp.op!r}")


def possible(predicate: Predicate) -> EndpointPredicate:
    """The ``Possible`` transform: tuples that may satisfy the predicate."""
    if isinstance(predicate, TruePredicate):
        return EndpointTrue()
    if isinstance(predicate, Comparison):
        return _possible_comparison(predicate)
    if isinstance(predicate, Not):
        return EndpointNot(certain(predicate.operand))
    if isinstance(predicate, And):
        return EndpointAnd(possible(predicate.left), possible(predicate.right))
    if isinstance(predicate, Or):
        return EndpointOr(possible(predicate.left), possible(predicate.right))
    raise PredicateError(f"unknown predicate node {predicate!r}")


def certain(predicate: Predicate) -> EndpointPredicate:
    """The ``Certain`` transform: tuples guaranteed to satisfy the predicate."""
    if isinstance(predicate, TruePredicate):
        return EndpointTrue()
    if isinstance(predicate, Comparison):
        return _certain_comparison(predicate)
    if isinstance(predicate, Not):
        return EndpointNot(possible(predicate.operand))
    if isinstance(predicate, And):
        return EndpointAnd(certain(predicate.left), certain(predicate.right))
    if isinstance(predicate, Or):
        return EndpointOr(certain(predicate.left), certain(predicate.right))
    raise PredicateError(f"unknown predicate node {predicate!r}")


_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def evaluate_endpoint(predicate: EndpointPredicate, row: Row) -> bool:
    """Evaluate an endpoint predicate (two-valued) against a row."""
    if isinstance(predicate, EndpointTrue):
        return True
    if isinstance(predicate, EndpointComparison):
        left = predicate.left.value(row)
        right = predicate.right.value(row)
        if isinstance(left, str) or isinstance(right, str):
            if not (isinstance(left, str) and isinstance(right, str)):
                raise PredicateTypeError("cannot compare string with numeric value")
            if predicate.op == "=":
                return left == right
            if predicate.op == "!=":
                return left != right
            if predicate.from_equality:
                # Text values are exact (lo == hi == the string), so the
                # equality translation's lexicographic checks conjoin to
                # plain equality.  User-written order comparisons on
                # strings stay rejected, matching evaluate_trilean.
                if predicate.op == "<=":
                    return left <= right
                if predicate.op == ">=":
                    return left >= right
            raise PredicateTypeError(
                f"operator {predicate.op!r} is not defined for strings"
            )
        return _OPS[predicate.op](left, right)
    if isinstance(predicate, EndpointNot):
        return not evaluate_endpoint(predicate.operand, row)
    if isinstance(predicate, EndpointAnd):
        return evaluate_endpoint(predicate.left, row) and evaluate_endpoint(
            predicate.right, row
        )
    if isinstance(predicate, EndpointOr):
        return evaluate_endpoint(predicate.left, row) or evaluate_endpoint(
            predicate.right, row
        )
    raise PredicateError(f"unknown endpoint predicate node {predicate!r}")


def endpoint_sql(predicate: EndpointPredicate) -> str:
    """Render an endpoint predicate as SQL-ish text.

    The paper notes the classification filters "can be expressed as SQL
    queries and optimized by the system"; this renderer produces the text a
    host database would receive (``col__lo`` / ``col__hi`` virtual columns).
    """
    if isinstance(predicate, EndpointTrue):
        return "TRUE"
    if isinstance(predicate, EndpointComparison):
        return f"{_sql_ref(predicate.left)} {predicate.op} {_sql_ref(predicate.right)}"
    if isinstance(predicate, EndpointNot):
        return f"NOT ({endpoint_sql(predicate.operand)})"
    if isinstance(predicate, EndpointAnd):
        return f"({endpoint_sql(predicate.left)} AND {endpoint_sql(predicate.right)})"
    if isinstance(predicate, EndpointOr):
        return f"({endpoint_sql(predicate.left)} OR {endpoint_sql(predicate.right)})"
    raise PredicateError(f"unknown endpoint predicate node {predicate!r}")


def _sql_ref(ref: EndpointRef) -> str:
    if isinstance(ref.term, Literal):
        return str(ref.term)
    base = f"{ref.term.column}__{ref.side}"
    if ref.term.scale != 1.0:
        base = f"{ref.term.scale:g} * {base}"
    if ref.term.offset:
        base = f"({base} + {ref.term.offset:g})"
    return base
