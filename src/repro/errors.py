"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by :mod:`repro`."""


class InvalidInputError(ReproError, ValueError):
    """Raised when user-supplied data fails validation.

    Examples: a point array that is not two-dimensional, contains NaN/Inf,
    has an unsupported dimensionality for a Morton-coded structure, or is
    empty where at least one point is required.
    """


class DimensionError(InvalidInputError):
    """Raised when the spatial dimension of the input is unsupported."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative algorithm fails to make progress.

    Borůvka's algorithm must merge at least two components every round; if a
    round finds no outgoing edge for any component the input is inconsistent
    (this cannot happen for a complete distance graph unless there is a bug
    or the data contains non-finite coordinates).
    """


class ServiceError(ReproError, RuntimeError):
    """Raised for lifecycle misuse of the :mod:`repro.service` engine.

    Example: submitting a job to an engine (or scheduler) that has been
    closed.  Deliberately distinct from :class:`InvalidInputError` — the
    job spec may be perfectly valid; it is the *service* that cannot take
    it — so the HTTP front end can map it to 503 rather than 400.
    """


class ClusterError(ReproError, RuntimeError):
    """Raised for fleet-level failures in :mod:`repro.cluster`.

    Example: a router whose every candidate node refused or dropped a
    connection.  Like :class:`ServiceError` this is an availability
    condition, not a client error — the router front end maps it to 503.
    """


class NodeUnavailableError(ClusterError):
    """One node could not serve a request (connection error, timeout or a
    5xx response).  The router treats this as a failover trigger: the job
    moves to the next node in preference order rather than failing."""


class NodeHTTPError(ClusterError):
    """A server answered with a non-retryable error — the request is bad.

    ``code`` is the HTTP status, ``error_code`` the envelope's
    machine-readable name (``unknown_job``, ``bad_request``, ... or
    ``None`` from a legacy server), ``retryable`` always ``False`` —
    retryable errors raise :class:`NodeUnavailableError` /
    :class:`NodeOverloadedError` instead.
    """

    def __init__(self, code: int, message: str, *,
                 error_code: str | None = None,
                 retryable: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.error_code = error_code
        self.retryable = retryable


class NodeOverloadedError(NodeUnavailableError):
    """One node shed the request (429 with a retryable envelope).

    Failover-eligible like :class:`NodeUnavailableError` — another node
    may have headroom — but deliberately distinct: an overloaded node is
    *alive*, so the router must not mark it down or trigger job recovery,
    and a client should honor ``retry_after`` (seconds, from the
    ``Retry-After`` header) before retrying the same node.
    """

    def __init__(self, message: str, *,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after
