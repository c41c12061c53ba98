"""Predicate language: AST, parsing and the T+/T?/T− classification.

:mod:`repro.predicates.batch` classifies a table's column arrays into the
paper's T+/T?/T− (``classify_masks``, ``classify_report``) and applies
the Appendix D refinement (``restrict_endpoints``); it is the only
classifier.  The one-row semantics it is checked against — three-valued
evaluation and the symbolic ``Possible`` / ``Certain`` translation — are
the test oracles ``tests/oracle/row_eval.py`` and
``tests/oracle/transforms.py``.
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
from repro.predicates.parser import parse_predicate

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
    "parse_predicate",
]
