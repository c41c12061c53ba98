"""Retry/backoff and circuit breaking (PR 8).

The bounded-answer model's availability story made mechanical: a
:class:`RetryPolicy` retries failed source batches with capped
exponential backoff and deterministic jitter; a per-source
:class:`CircuitBreaker` stops hammering dead sources and lets queries
degrade to their current (wider but correct) bounds instead.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
]
