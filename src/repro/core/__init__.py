"""TRAPP/AG core: bounds, constraints, aggregates, optimizers, executor."""

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound, exact, hull, intersect_all
from repro.core.constraints import (
    EXACT,
    UNCONSTRAINED,
    AbsolutePrecision,
    PrecisionConstraint,
    RelativePrecision,
)
from repro.core.executor import (
    NullRefreshProvider,
    QueryExecutor,
    RefreshProvider,
    execute_query,
)

__all__ = [
    "Bound",
    "exact",
    "hull",
    "intersect_all",
    "BoundedAnswer",
    "PrecisionConstraint",
    "AbsolutePrecision",
    "RelativePrecision",
    "EXACT",
    "UNCONSTRAINED",
    "QueryExecutor",
    "RefreshProvider",
    "NullRefreshProvider",
    "execute_query",
]
