"""One-row predicate semantics: the reference the array classifier matches.

Two evaluators are provided:

* :func:`evaluate_exact` — ordinary two-valued evaluation over a row whose
  referenced columns all hold exact values (the master-side semantics).
* :func:`evaluate_trilean` — three-valued evaluation over a row whose
  columns may hold :class:`~repro.core.bound.Bound` intervals.  The result
  is ``TRUE`` when the predicate holds for *every* realization of the
  bounds, ``FALSE`` when it holds for *none*, and ``MAYBE`` otherwise.
  This is the value-level form of the paper's ``Certain``/``Possible``
  transforms (Appendix D): ``Certain(P)`` ⟺ result is TRUE, and
  ``Possible(P)`` ⟺ result is not FALSE.

The comparisons under them are the free functions ``cmp_lt`` … ``cmp_ne``
over two intervals, returning :class:`Trilean`.

Note the same conservative approximations as the paper: conjunction of
``Possible`` and disjunction of ``Certain`` are one-directional, so a
``MAYBE`` may occasionally be reported for a tuple that is really decided
(correlated subexpressions); this affects only optimality, never
correctness.  ``repro.predicates.batch`` computes the same three sets a
column at a time.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.core.bound import Bound, Number
from repro.errors import PredicateError, PredicateTypeError
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    Term,
    TruePredicate,
)
from repro.storage.row import Row

__all__ = [
    "Trilean",
    "cmp_lt",
    "cmp_le",
    "cmp_gt",
    "cmp_ge",
    "cmp_eq",
    "cmp_ne",
    "evaluate_exact",
    "evaluate_trilean",
]


class Trilean(enum.Enum):
    """Three-valued logic result for comparisons over intervals."""

    FALSE = 0
    MAYBE = 1
    TRUE = 2

    def __invert__(self) -> "Trilean":
        if self is Trilean.TRUE:
            return Trilean.FALSE
        if self is Trilean.FALSE:
            return Trilean.TRUE
        return Trilean.MAYBE

    def __and__(self, other: "Trilean") -> "Trilean":
        if Trilean.FALSE in (self, other):
            return Trilean.FALSE
        if Trilean.MAYBE in (self, other):
            return Trilean.MAYBE
        return Trilean.TRUE

    def __or__(self, other: "Trilean") -> "Trilean":
        if Trilean.TRUE in (self, other):
            return Trilean.TRUE
        if Trilean.MAYBE in (self, other):
            return Trilean.MAYBE
        return Trilean.FALSE

    @property
    def is_certain(self) -> bool:
        """True iff the comparison holds for every realization."""
        return self is Trilean.TRUE

    @property
    def is_possible(self) -> bool:
        """True iff the comparison holds for at least one realization."""
        return self is not Trilean.FALSE

    @staticmethod
    def of(value: bool) -> "Trilean":
        """Lift an ordinary boolean into the three-valued domain."""
        return Trilean.TRUE if value else Trilean.FALSE


# ----------------------------------------------------------------------
# Three-valued comparisons (Appendix D translation rules)
# ----------------------------------------------------------------------
def _as_bound(value: "Bound | Number") -> Bound:
    return value if isinstance(value, Bound) else Bound.exact(value)


def cmp_lt(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    """Three-valued ``a < b``.

    Certain when ``a.hi < b.lo``; impossible when ``a.lo >= b.hi``.
    """
    a, b = _as_bound(a), _as_bound(b)
    if a.hi < b.lo:
        return Trilean.TRUE
    if a.lo >= b.hi:
        return Trilean.FALSE
    return Trilean.MAYBE


def cmp_le(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    a, b = _as_bound(a), _as_bound(b)
    if a.hi <= b.lo:
        return Trilean.TRUE
    if a.lo > b.hi:
        return Trilean.FALSE
    return Trilean.MAYBE


def cmp_gt(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    return cmp_lt(b, a)


def cmp_ge(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    return cmp_le(b, a)


def cmp_eq(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    """Three-valued equality.

    Certain only when both intervals are the same single point; false
    when the intervals are disjoint; maybe otherwise.
    """
    a, b = _as_bound(a), _as_bound(b)
    if a.is_exact and b.is_exact and a.lo == b.lo:
        return Trilean.TRUE
    if not a.overlaps(b):
        return Trilean.FALSE
    return Trilean.MAYBE


def cmp_ne(a: "Bound | Number", b: "Bound | Number") -> Trilean:
    return ~cmp_eq(a, b)


def term_bound(term: ColumnRef, value: Bound) -> Bound:
    """Apply a column term's linear transform to an interval value."""
    return value.scale(term.scale).shift(term.offset)


def resolve_column(row: Row, term: ColumnRef):
    """Fetch a column value, preferring the table-qualified key.

    Joined rows (:mod:`repro.joins`) store values under ``table.column``
    keys (plus unqualified aliases when unambiguous); single-table rows use
    plain column names.  This helper makes both work for any ``ColumnRef``.
    """
    if term.table is not None:
        qualified = f"{term.table}.{term.column}"
        if qualified in row:
            return row[qualified]
    return row[term.column]


def _term_value_exact(term: Term, row: Row) -> float | str:
    if isinstance(term, Literal):
        return term.value
    value = resolve_column(row, term)
    if isinstance(value, str):
        return value
    if isinstance(value, Bound):
        if not value.is_exact:
            raise PredicateTypeError(
                f"column {term.column!r} holds non-exact bound {value}; "
                "exact evaluation is impossible"
            )
        return term.scale * value.lo + term.offset
    return term.scale * float(value) + term.offset


def _term_value_bound(term: Term, row: Row) -> Bound | str:
    if isinstance(term, Literal):
        if isinstance(term.value, str):
            return term.value
        return Bound.exact(term.value)
    value = resolve_column(row, term)
    if isinstance(value, str):
        return value
    if isinstance(value, Bound):
        return term_bound(term, value)
    return term_bound(term, Bound.exact(float(value)))


_EXACT_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def evaluate_exact(predicate: Predicate, row: Row) -> bool:
    """Two-valued evaluation; every referenced column must be exact."""
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        left = _term_value_exact(predicate.left, row)
        right = _term_value_exact(predicate.right, row)
        if isinstance(left, str) != isinstance(right, str):
            raise PredicateTypeError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            )
        if isinstance(left, str):
            if predicate.op not in ("=", "!="):
                raise PredicateTypeError(
                    f"operator {predicate.op!r} is not defined for strings"
                )
            return (left == right) if predicate.op == "=" else (left != right)
        return _EXACT_OPS[predicate.op](left, right)
    if isinstance(predicate, Not):
        return not evaluate_exact(predicate.operand, row)
    if isinstance(predicate, And):
        return evaluate_exact(predicate.left, row) and evaluate_exact(
            predicate.right, row
        )
    if isinstance(predicate, Or):
        return evaluate_exact(predicate.left, row) or evaluate_exact(
            predicate.right, row
        )
    raise PredicateError(f"unknown predicate node {predicate!r}")


_TRILEAN_OPS: dict[str, Callable[[Bound, Bound], Trilean]] = {
    "<": cmp_lt,
    "<=": cmp_le,
    ">": cmp_gt,
    ">=": cmp_ge,
    "=": cmp_eq,
    "!=": cmp_ne,
}


def _compare_trilean(left: Bound | str, op: str, right: Bound | str) -> Trilean:
    if isinstance(left, str) or isinstance(right, str):
        if not (isinstance(left, str) and isinstance(right, str)):
            raise PredicateTypeError("cannot compare string with numeric value")
        if op == "=":
            return Trilean.of(left == right)
        if op == "!=":
            return Trilean.of(left != right)
        raise PredicateTypeError(f"operator {op!r} is not defined for strings")
    compare = _TRILEAN_OPS.get(op)
    if compare is not None:
        return compare(left, right)
    raise PredicateError(f"unknown comparison operator {op!r}")


def evaluate_trilean(predicate: Predicate, row: Row) -> Trilean:
    """Three-valued evaluation over possibly-bounded column values."""
    if isinstance(predicate, TruePredicate):
        return Trilean.TRUE
    if isinstance(predicate, Comparison):
        left = _term_value_bound(predicate.left, row)
        right = _term_value_bound(predicate.right, row)
        return _compare_trilean(left, predicate.op, right)
    if isinstance(predicate, Not):
        return ~evaluate_trilean(predicate.operand, row)
    if isinstance(predicate, And):
        return evaluate_trilean(predicate.left, row) & evaluate_trilean(
            predicate.right, row
        )
    if isinstance(predicate, Or):
        return evaluate_trilean(predicate.left, row) | evaluate_trilean(
            predicate.right, row
        )
    raise PredicateError(f"unknown predicate node {predicate!r}")
