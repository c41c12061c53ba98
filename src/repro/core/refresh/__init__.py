"""CHOOSE_REFRESH optimizers, one per aggregate.

:func:`get_choose_refresh` dispatches on the SQL aggregate name.  SUM and
AVG accept an ``epsilon`` for their knapsack approximation (paper default
0.1); MIN/MAX/COUNT optimizers are exactly optimal and parameter-free.
"""

from repro.core.refresh.base import (
    ChooseRefresh,
    CostFunc,
    RefreshPlan,
    uniform_cost,
)
from repro.core.refresh.minmax import (
    CHOOSE_MAX,
    CHOOSE_MIN,
    MaxChooseRefresh,
    MinChooseRefresh,
)
from repro.core.refresh.summing import CHOOSE_SUM, DEFAULT_EPSILON, SumChooseRefresh
from repro.core.refresh.counting import CHOOSE_COUNT, CountChooseRefresh
from repro.core.refresh.average import CHOOSE_AVG, AvgChooseRefresh
from repro.errors import TrappError

__all__ = [
    "ChooseRefresh",
    "CostFunc",
    "RefreshPlan",
    "uniform_cost",
    "get_choose_refresh",
    "register_choose_refresh",
    "DEFAULT_EPSILON",
    "MinChooseRefresh",
    "MaxChooseRefresh",
    "SumChooseRefresh",
    "CountChooseRefresh",
    "AvgChooseRefresh",
    "CHOOSE_MIN",
    "CHOOSE_MAX",
    "CHOOSE_SUM",
    "CHOOSE_COUNT",
    "CHOOSE_AVG",
]

_DEFAULTS: dict[str, ChooseRefresh] = {
    "MIN": CHOOSE_MIN,
    "MAX": CHOOSE_MAX,
    "SUM": CHOOSE_SUM,
    "COUNT": CHOOSE_COUNT,
    "AVG": CHOOSE_AVG,
}


def register_choose_refresh(name: str, chooser: ChooseRefresh) -> ChooseRefresh:
    """Register an optimizer for an extension aggregate (e.g. MEDIAN)."""
    _DEFAULTS[name.upper()] = chooser
    return chooser


def get_choose_refresh(
    name: str, epsilon: float | None = None, force_exact: bool = False
) -> ChooseRefresh:
    """Return the CHOOSE_REFRESH optimizer for an aggregate by SQL name."""
    key = name.upper()
    if key not in _DEFAULTS:
        known = ", ".join(sorted(_DEFAULTS))
        raise TrappError(f"unknown aggregate {name!r}; known: {known}")
    if key == "SUM" and (epsilon is not None or force_exact):
        return SumChooseRefresh(
            epsilon=epsilon or DEFAULT_EPSILON, force_exact=force_exact
        )
    if key == "AVG" and (epsilon is not None or force_exact):
        return AvgChooseRefresh(
            epsilon=epsilon or DEFAULT_EPSILON, force_exact=force_exact
        )
    return _DEFAULTS[key]
