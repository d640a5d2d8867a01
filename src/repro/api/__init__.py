"""Shared ``/v1`` wire-API layer: contract, asyncio host, async client.

The contract (:mod:`repro.api.contract`) owns the route table, request
validation, the uniform error envelope and the ``X-Repro-*`` headers;
the host (:mod:`repro.api.http`) serves any :class:`WireAPI` backend on
one asyncio event loop with bounded admission, and owns the access log
and the HTTP instruments.  The node front end
(:mod:`repro.service.server`) and the router front end
(:mod:`repro.cluster.server`) are thin backends over this package.
"""

from repro.api.contract import (
    ApiError,
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_NOT_FOUND,
    ERR_OVERLOADED,
    ERR_UNAVAILABLE,
    ERR_UNKNOWN_JOB,
    ERR_UPSTREAM,
    MAX_BODY_BYTES,
    MAX_WAIT_SECONDS,
    PROMETHEUS_CONTENT_TYPE,
    Request,
    Response,
    WireAPI,
    error_envelope,
    parse_error_envelope,
    parse_format_param,
    parse_wait_param,
)
from repro.api.http import AsyncHTTPHost, DEFAULT_MAX_INFLIGHT

__all__ = [
    "ApiError",
    "AsyncHTTPHost",
    "DEFAULT_MAX_INFLIGHT",
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_NOT_FOUND",
    "ERR_OVERLOADED",
    "ERR_UNAVAILABLE",
    "ERR_UNKNOWN_JOB",
    "ERR_UPSTREAM",
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "PROMETHEUS_CONTENT_TYPE",
    "Request",
    "Response",
    "WireAPI",
    "error_envelope",
    "parse_error_envelope",
    "parse_format_param",
    "parse_wait_param",
]
