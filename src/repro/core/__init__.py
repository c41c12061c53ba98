"""TRAPP/AG core: bounds, constraints, aggregates, optimizers, executor."""

from repro.core.answer import BoundedAnswer
from repro.core.bound import Bound, exact
from repro.core.constraints import (
    EXACT,
    UNCONSTRAINED,
    AbsolutePrecision,
    PrecisionConstraint,
    RelativePrecision,
)
from repro.core.executor import (
    NullRefreshProvider,
    RefreshProvider,
    drive_steps,
    table_steps,
)

__all__ = [
    "Bound",
    "exact",
    "BoundedAnswer",
    "PrecisionConstraint",
    "AbsolutePrecision",
    "RelativePrecision",
    "EXACT",
    "UNCONSTRAINED",
    "table_steps",
    "drive_steps",
    "RefreshProvider",
    "NullRefreshProvider",
]
