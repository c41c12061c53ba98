"""Exception hierarchy for the TRAPP/AG reproduction.

Every error raised by this package derives from :class:`TrappError`, so
callers can catch a single base class at API boundaries.  The hierarchy
mirrors the layered architecture: storage errors, predicate/classification
errors, replication-protocol errors, query-language errors, and optimizer
errors each have their own branch.
"""

from __future__ import annotations


class TrappError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class BoundError(TrappError):
    """An interval operation was given invalid endpoints or operands.

    Raised, for example, when constructing a bound with ``lo > hi`` or with
    a NaN endpoint, or when dividing by an interval that straddles zero.
    """


class PrecisionConstraintError(TrappError):
    """A precision constraint is malformed (e.g. negative width)."""


class ConstraintUnsatisfiableError(TrappError):
    """No refresh set can satisfy the requested precision constraint.

    This should not occur for the standard aggregates (refreshing every
    tuple always yields an exact answer), but defensive code paths raise it
    rather than returning an answer that silently violates the constraint.
    """


class SchemaError(TrappError):
    """A table schema is malformed or a row does not match its schema."""


class UnknownColumnError(SchemaError):
    """A query or predicate referenced a column that does not exist."""

    def __init__(self, column: str, table: str | None = None) -> None:
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column {column!r}{where}")
        self.column = column
        self.table = table


class UnknownTableError(TrappError):
    """A query referenced a table not present in the catalog."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table {table!r}")
        self.table = table


class DuplicateKeyError(TrappError):
    """An insert would duplicate an existing primary key."""


class PredicateError(TrappError):
    """A predicate expression is malformed or cannot be evaluated."""


class PredicateTypeError(PredicateError):
    """A predicate compared incompatible types (e.g. bound vs string)."""


class ReplicationProtocolError(TrappError):
    """The source/cache protocol was violated (e.g. refresh for an object
    the source does not own, or a cache registering twice)."""


class SqlSyntaxError(TrappError):
    """The TRAPP SQL dialect parser rejected the input text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class OptimizerError(TrappError):
    """A CHOOSE_REFRESH optimizer was invoked with inconsistent inputs."""


class SimulationError(TrappError):
    """The discrete-event simulation reached an inconsistent state."""


class ServiceError(TrappError):
    """The concurrent query service rejected or failed a request."""


class AdmissionError(ServiceError):
    """Admission control rejected a query before execution (e.g. the
    requested precision is tighter than the client's floor)."""


class ServiceOverloadError(AdmissionError):
    """A client exceeded its in-flight query allowance."""


class FaultError(TrappError):
    """A component was unreachable (injected or real infrastructure fault).

    The serving layers convert these into per-source failure receipts,
    retries, failover dispatches, and finally *degraded* answers — bounds
    that are wider than requested but still guaranteed to contain the
    true value.  Only a constraint that strictly requires an exact value
    from a dead component surfaces one of these to the caller.
    """


class SourceUnavailableError(FaultError):
    """A data source could not be contacted for a refresh.

    Raised by :meth:`DataCache.refresh` (the serial protocol path) and by
    the executor when a precision constraint of width 0 requires exact
    values that only an unreachable source holds.  ``sources`` names the
    unreachable source(s).
    """

    def __init__(self, message: str, sources: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.sources = sources


class CacheUnavailableError(FaultError):
    """A cache replica is crashed/restarting and cannot serve refreshes.

    The scheduler catches this during group dispatch and fails over to
    the next-cheapest subscribed replica
    (:meth:`CacheGroup.leader_for_source` with ``exclude=``).
    """

    def __init__(self, message: str, cache_id: str | None = None) -> None:
        super().__init__(message)
        self.cache_id = cache_id


class WireProtocolError(ServiceError):
    """A malformed message arrived on the NDJSON wire protocol."""


class WireTimeoutError(ServiceError):
    """The server did not reply within the client's deadline.

    Raised by :class:`~repro.service.client.TrappClient` after the
    configured per-request deadline elapses and a single bounded
    reconnect attempt has also failed — instead of hanging forever on a
    dead server.
    """


class RemoteQueryError(ServiceError):
    """The server reported a query failure over the wire.

    ``kind`` carries the server-side exception class name so clients can
    distinguish admission rejections from execution errors.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
