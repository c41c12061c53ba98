"""Predicate language: AST, parsing, evaluation, Possible/Certain, T± sets.

:mod:`repro.predicates.batch` classifies a table's column arrays into the
paper's T+/T?/T− (``classify_masks``, ``classify_report``) and applies
the Appendix D refinement (``restrict_endpoints``); it is the only
classifier.  :mod:`repro.predicates.eval` evaluates a predicate on one
row, and :mod:`repro.predicates.transforms` is Appendix D's symbolic
``Possible`` / ``Certain`` translation.
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
    "evaluate_exact",
    "evaluate_trilean",
    "parse_predicate",
    "possible",
    "certain",
    "endpoint_sql",
]
