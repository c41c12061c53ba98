"""Predicate expression AST.

Predicates in TRAPP/AG queries are arbitrary boolean combinations of binary
comparisons between columns and constants (paper Appendix D).  This module
defines the expression tree; :mod:`repro.predicates.batch` classifies a
table under it a column at a time.

Comparison operands are *terms*: either a column reference or a literal
constant.  Terms may additionally carry a linear transform
(``scale * x + offset``) so simple arithmetic like ``2 * latency + 1 < 20``
parses into a single comparison; this keeps the Appendix D endpoint
translation exact (linear maps preserve interval endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import PredicateError

__all__ = [
    "Term",
    "ColumnRef",
    "Literal",
    "Comparison",
    "CompOp",
    "Not",
    "And",
    "Or",
    "TruePredicate",
    "Predicate",
    "columns_of",
]


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A reference to a column, optionally qualified and linearly mapped.

    The value of the term is ``scale * row[column] + offset``.
    """

    column: str
    table: str | None = None
    scale: float = 1.0
    offset: float = 0.0

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def __str__(self) -> str:
        base = self.qualified_name
        if self.scale != 1.0:
            base = f"{self.scale:g}*{base}"
        if self.offset:
            sign = "+" if self.offset > 0 else "-"
            base = f"{base} {sign} {abs(self.offset):g}"
        return base


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant term (number or string)."""

    value: float | str

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return f"{self.value:g}"


Term = Union[ColumnRef, Literal]


class CompOp:
    """Comparison operator symbols, with helpers for flip/negate."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    ALL = (LT, LE, GT, GE, EQ, NE)

    _FLIP = {LT: GT, LE: GE, GT: LT, GE: LE, EQ: EQ, NE: NE}
    _NEGATE = {LT: GE, LE: GT, GT: LE, GE: LT, EQ: NE, NE: EQ}

    @classmethod
    def flip(cls, op: str) -> str:
        """The operator with operands swapped (``a < b`` ≡ ``b > a``)."""
        return cls._FLIP[op]

    @classmethod
    def negate(cls, op: str) -> str:
        """The logical complement (``not (a < b)`` ≡ ``a >= b``)."""
        return cls._NEGATE[op]


@dataclass(frozen=True, slots=True)
class Comparison:
    """A binary comparison ``left OP right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in CompOp.ALL:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    def normalized(self) -> "Comparison":
        """Rewrite so any column reference is on the left when possible."""
        if isinstance(self.left, Literal) and isinstance(self.right, ColumnRef):
            return Comparison(self.right, CompOp.flip(self.op), self.left)
        return self

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class Not:
    """Logical negation."""

    operand: "Predicate"

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True, slots=True)
class And:
    """Logical conjunction (binary; parser folds chains left-to-right)."""

    left: "Predicate"
    right: "Predicate"

    def __str__(self) -> str:
        return f"({self.left}) AND ({self.right})"


@dataclass(frozen=True, slots=True)
class Or:
    """Logical disjunction."""

    left: "Predicate"
    right: "Predicate"

    def __str__(self) -> str:
        return f"({self.left}) OR ({self.right})"


@dataclass(frozen=True, slots=True)
class TruePredicate:
    """The always-true predicate (a query with no WHERE clause)."""

    def __str__(self) -> str:
        return "TRUE"


Predicate = Union[Comparison, Not, And, Or, TruePredicate]


def columns_of(predicate: Predicate) -> set[str]:
    """The set of (unqualified) column names mentioned by a predicate."""

    def walk(node: Predicate) -> Iterator[str]:
        if isinstance(node, Comparison):
            for term in (node.left, node.right):
                if isinstance(term, ColumnRef):
                    yield term.column
        elif isinstance(node, Not):
            yield from walk(node.operand)
        elif isinstance(node, (And, Or)):
            yield from walk(node.left)
            yield from walk(node.right)
        elif isinstance(node, TruePredicate):
            return
        else:  # pragma: no cover - defensive
            raise PredicateError(f"unknown predicate node {node!r}")

    return set(walk(predicate))
