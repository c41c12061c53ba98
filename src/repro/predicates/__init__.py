"""Predicate language: AST, parsing, evaluation, Possible/Certain, T± sets.

Row-at-a-time classification lives in :mod:`repro.predicates.classify`;
:mod:`repro.predicates.batch` provides the vectorized counterparts
(``classify_masks``, ``restrict_endpoints``) over a table's columnar
mirror.
"""

from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
    columns_of,
)
from repro.predicates.classify import (
    Classification,
    classify,
    classify_trilean,
    restrict_bound,
)
from repro.predicates.eval import evaluate_exact, evaluate_trilean
from repro.predicates.parser import parse_predicate
from repro.predicates.transforms import certain, endpoint_sql, possible

from repro.predicates.batch import (
    ColumnarClassification,
    classify_masks,
    restrict_endpoints,
)

__all__ = [
    "ColumnarClassification",
    "classify_masks",
    "restrict_endpoints",
    "And",
    "ColumnRef",
    "Comparison",
    "Literal",
    "Not",
    "Or",
    "Predicate",
    "TruePredicate",
    "columns_of",
    "Classification",
    "classify",
    "classify_trilean",
    "restrict_bound",
    "evaluate_exact",
    "evaluate_trilean",
    "parse_predicate",
    "possible",
    "certain",
    "endpoint_sql",
]
