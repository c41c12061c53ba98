"""The volatile-stock-day workload behind the paper's Figures 5 and 6.

The paper's §5.2.1 experiments use 90 stock prices from one highly
volatile trading day: each stock's day *low* and *high* become the cached
bound ``[L_i, H_i]``, the *closing* price is the precise master value
``V_i``, and each object's refresh cost ``C_i`` is a uniform random
integer in [1, 10].

We have no access to the original quote sheet, so this module synthesizes
an equivalent day: each ticker follows an intraday geometric random walk
(``GeometricWalk``), from which the low/high/close are read off.  The
experiments depend only on the joint distribution of bound widths and
costs — not on which real companies moved — so the reproduced Figures 5
and 6 retain the paper's shapes (see the ``fig5.*`` and ``fig6.*``
sections of docs/REPRODUCTION.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.bound import Bound
from repro.storage.schema import Column, ColumnKind, Schema
from repro.storage.table import Table

from .walks import GeometricWalk

__all__ = [
    "STOCKS_SCHEMA",
    "StockDay",
    "volatile_stock_day",
    "stock_cache_table",
    "stock_master_table",
    "stock_costs",
]


STOCKS_SCHEMA = Schema(
    [
        Column("ticker", ColumnKind.TEXT),
        Column("price", ColumnKind.BOUNDED),
        Column("cost", ColumnKind.EXACT),
    ],
    name="stocks",
)


@dataclass(frozen=True, slots=True)
class StockDay:
    """One ticker's synthesized trading day."""

    ticker: str
    low: float
    high: float
    close: float
    cost: int

    @property
    def bound(self) -> Bound:
        return Bound(self.low, self.high)

    @property
    def width(self) -> float:
        return self.high - self.low


def volatile_stock_day(
    n_stocks: int = 90,
    seed: int = 20000521,
    ticks: int = 390,
    sigma: float = 0.004,
    cost_range: tuple[int, int] = (1, 10),
) -> list[StockDay]:
    """Synthesize one volatile trading day for ``n_stocks`` tickers.

    ``ticks`` defaults to 390 (minutes in a NYSE session); ``sigma`` is the
    per-tick log-volatility, chosen so typical day ranges are several
    percent of the price — a "highly volatile" day.  Costs are uniform
    integers in ``cost_range``, matching the paper.
    """
    rng = random.Random(seed)
    days: list[StockDay] = []
    for index in range(n_stocks):
        open_price = rng.uniform(10.0, 200.0)
        walk = GeometricWalk(
            value=open_price, sigma=sigma, rng=random.Random(rng.getrandbits(64))
        )
        low = high = open_price
        price = open_price
        for _ in range(ticks):
            price = walk.advance()
            low = min(low, price)
            high = max(high, price)
        days.append(
            StockDay(
                ticker=f"SYM{index:03d}",
                low=low,
                high=high,
                close=price,
                cost=rng.randint(*cost_range),
            )
        )
    return days


def stock_cache_table(days: list[StockDay]) -> Table:
    """The cache-side table: price bounds are each day's [low, high]."""
    table = Table("stocks", STOCKS_SCHEMA)
    for day in days:
        table.insert(
            {"ticker": day.ticker, "price": day.bound, "cost": float(day.cost)}
        )
    return table


def stock_master_table(days: list[StockDay]) -> Table:
    """The source-side table: prices are the closing values."""
    table = Table("stocks", STOCKS_SCHEMA)
    for day in days:
        table.insert(
            {"ticker": day.ticker, "price": day.close, "cost": float(day.cost)}
        )
    return table


def stock_costs(days: list[StockDay]) -> dict[int, float]:
    """Tuple id → refresh cost (insertion order matches table tids)."""
    return {index + 1: float(day.cost) for index, day in enumerate(days)}
