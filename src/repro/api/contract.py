"""The ``/v1`` wire contract, shared by the node and router front ends.

One module owns everything a ``/v1`` server must agree on — the route
table, query-parameter validation, body-size bounds, the error envelope
and the ``X-Repro-*`` headers — so the two HTTP hosts
(:mod:`repro.service.server` and :mod:`repro.cluster.server`) cannot
drift apart.  The transport lives in :mod:`repro.api.http`; this module
is pure request/response logic and runs unchanged under any host.

Error envelope
--------------
Every non-2xx response body is::

    {"error": {"code": <str>, "message": <str>, "retryable": <bool>}}

``code`` is a stable machine-readable name (see the ``ERR_*`` constants),
``message`` the human-readable detail (what the legacy ``{"error": str}``
shape carried), and ``retryable`` tells a client whether the same request
may succeed elsewhere or later — :class:`repro.client.Client` keys
failover on it instead of guessing from the status class.  2xx bodies
are unchanged, so the envelope is additive for well-behaved clients.

Dispatch
--------
:class:`WireAPI` parses a :class:`Request`, validates the query/body and
calls one of the abstract operations (``healthz``, ``stats``,
``metrics_json``/``metrics_text``, ``submit``, ``job``, ``flush``,
``compact``, ``traces``/``trace``, ``dump``,
``artifact_list``/``artifact_get``/``artifact_put``) implemented by
the node backend (over an
:class:`~repro.service.engine.Engine`) or the router backend (over a
:class:`~repro.cluster.router.ClusterRouter`).  ``events`` and the dump
bundle's event ring are served here, from the host's access log.
Backends raise :class:`ApiError` (or library errors mapped here) and the
response is the uniform envelope.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs

import orjson

from repro.errors import (
    ClusterError,
    InvalidInputError,
    ServiceError,
)
from repro.obs.events import EventLog
from repro.obs.profiler import render_collapsed

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body (an inline 1M-point 3D job is ~60 MB of
#: JSON; anything bigger should arrive as a dataset spec).
MAX_BODY_BYTES = 256 << 20

#: Cap on a single ``GET /v1/jobs/<id>`` long-poll; clients needing longer
#: re-poll in chunks (see ``repro.client.Client.wait``).
MAX_WAIT_SECONDS = 60.0

# --------------------------------------------------------------- error codes
#: The request was malformed (bad spec, bad JSON, bad query parameter).
ERR_BAD_REQUEST = "bad_request"
#: The job id is unknown (never submitted, or retention-evicted).
ERR_UNKNOWN_JOB = "unknown_job"
#: The trace id is not in the archive (sampled out, evicted, or never
#: seen by this node/fleet).
ERR_UNKNOWN_TRACE = "unknown_trace"
#: No such endpoint (or unsupported method on an existing one).
ERR_NOT_FOUND = "not_found"
#: Admission control shed the request; retry after ``Retry-After`` seconds.
ERR_OVERLOADED = "overloaded"
#: The service (engine shutting down / no node reachable) cannot take it.
ERR_UNAVAILABLE = "unavailable"
#: A router relaying a node error that carried no envelope of its own.
ERR_UPSTREAM = "upstream_error"
#: An unexpected server-side failure.
ERR_INTERNAL = "internal"

_DEFAULT_CODES = {400: ERR_BAD_REQUEST, 404: ERR_NOT_FOUND,
                  429: ERR_OVERLOADED, 500: ERR_INTERNAL,
                  503: ERR_UNAVAILABLE}


class ApiError(Exception):
    """One non-2xx outcome, carrying everything the envelope needs.

    ``retryable`` defaults by status class: shed (429) and availability
    (5xx) conditions may succeed elsewhere/later, client errors (4xx)
    would just repeat the mistake.  ``retry_after`` (seconds) becomes a
    ``Retry-After`` header.
    """

    def __init__(self, status: int, message: str, *,
                 code: Optional[str] = None,
                 retryable: Optional[bool] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_CODES.get(status, ERR_INTERNAL)
        self.retryable = (status == 429 or status >= 500) \
            if retryable is None else bool(retryable)
        self.retry_after = retry_after


def error_envelope(code: str, message: str, retryable: bool
                   ) -> Dict[str, Any]:
    """The uniform non-2xx body shape."""
    return {"error": {"code": code, "message": message,
                      "retryable": bool(retryable)}}


def parse_error_envelope(payload: Any
                         ) -> Tuple[Optional[str], str, Optional[bool]]:
    """``(code, message, retryable)`` from a decoded error body.

    Tolerant of the legacy ``{"error": "<string>"}`` shape and arbitrary
    bodies: missing fields come back as ``None`` (``retryable=None``
    means *unknown* — callers fall back to status-class heuristics).
    """
    err = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(err, dict):
        retryable = err.get("retryable")
        return (str(err.get("code")) if err.get("code") is not None else None,
                str(err.get("message", "")),
                retryable if isinstance(retryable, bool) else None)
    if err is not None:
        return None, str(err), None
    return None, str(payload), None


def parse_wait_param(query: str) -> float:
    """Long-poll seconds from a job-endpoint query string.

    ``wait_s`` is the canonical spelling, ``wait`` the original one; the
    explicit suffix wins when both are (oddly) supplied.  Bounded by
    :data:`MAX_WAIT_SECONDS`, default 0.  Shared by the node and router
    front ends so the wire contract cannot silently diverge.  Raises
    :class:`InvalidInputError` on a non-numeric value.
    """
    wait = 0.0
    params = parse_qs(query)
    for name in ("wait", "wait_s"):
        if name in params:
            try:
                wait = min(float(params[name][0]), MAX_WAIT_SECONDS)
            except ValueError:
                raise InvalidInputError(f"{name} must be a number")
    return wait


def parse_format_param(query: str) -> str:
    """``format=`` from a metrics query string (``prometheus`` default).

    Validated here — an unknown value is a 400 envelope, never a handler
    crash — which is the shared fix for the historical ad-hoc parsing.
    """
    fmt = parse_qs(query).get("format", ["prometheus"])[0]
    if fmt not in ("prometheus", "json"):
        raise ApiError(400, f"unknown metrics format {fmt!r}; "
                            f"use 'prometheus' or 'json'")
    return fmt


#: Most trace records one query may return (the router multiplies this
#: across nodes before merging, so it bounds fan-out payloads too).
MAX_TRACE_LIMIT = 500
#: Default trace records per query.
DEFAULT_TRACE_LIMIT = 50
#: Most events one ``/v1/admin/events`` request may return.
MAX_EVENTS_LIMIT = 1000

#: Archived-trace outcomes a query filter may name.
TRACE_OUTCOMES = ("done", "failed")


def parse_traces_query(query: str) -> Dict[str, Any]:
    """Validated filters from a ``GET /v1/traces`` query string.

    Returns kwargs for :meth:`repro.obs.TraceArchive.query` —
    ``since`` (unix seconds), ``min_duration_s`` (the wire speaks
    ``min_duration_ms``), ``outcome``, ``algorithm``, ``limit``.  Bad
    values are 400 envelopes here, identically on node and router.
    """
    params = parse_qs(query)
    out: Dict[str, Any] = {"limit": DEFAULT_TRACE_LIMIT}

    def _float(name: str) -> Optional[float]:
        if name not in params:
            return None
        try:
            value = float(params[name][0])
        except ValueError:
            raise ApiError(400, f"{name} must be a number")
        if value < 0:
            raise ApiError(400, f"{name} must be >= 0")
        return value

    since = _float("since")
    if since is not None:
        out["since"] = since
    min_ms = _float("min_duration_ms")
    if min_ms is not None:
        out["min_duration_s"] = min_ms / 1000.0
    if "outcome" in params:
        outcome = params["outcome"][0]
        if outcome not in TRACE_OUTCOMES:
            raise ApiError(400, f"unknown outcome {outcome!r}; "
                                f"use one of {TRACE_OUTCOMES}")
        out["outcome"] = outcome
    if "algorithm" in params:
        out["algorithm"] = params["algorithm"][0]
    if "limit" in params:
        try:
            limit = int(params["limit"][0])
        except ValueError:
            raise ApiError(400, "limit must be an integer")
        if not 1 <= limit <= MAX_TRACE_LIMIT:
            raise ApiError(400, f"limit must be in "
                                f"[1, {MAX_TRACE_LIMIT}]")
        out["limit"] = limit
    return out


#: Bounds on an on-demand profile capture (the sampling window holds a
#: server-side worker for its whole duration, so it must be bounded the
#: same way long-polls are).
MAX_PROFILE_WAIT_SECONDS = 30.0
MAX_PROFILE_QUERY_HZ = 199.0


def parse_profile_query(query: str) -> Dict[str, Any]:
    """Validated parameters from a ``GET /v1/profile`` query string.

    Returns ``{"seconds", "hz", "format"}`` — ``seconds`` (capture
    window; ``None`` answers from the ring of recent samples), ``hz``
    (burst sampling rate; ``None`` lets the profiler choose) and
    ``format`` (``collapsed`` text by default, ``json`` for the full
    document).  Bad values are 400 envelopes here, identically on node
    and router.
    """
    params = parse_qs(query)
    out: Dict[str, Any] = {"seconds": None, "hz": None,
                           "format": "collapsed"}
    if "seconds" in params:
        try:
            seconds = float(params["seconds"][0])
        except ValueError:
            raise ApiError(400, "seconds must be a number")
        if not 0 <= seconds <= MAX_PROFILE_WAIT_SECONDS:
            raise ApiError(400, f"seconds must be in "
                                f"[0, {MAX_PROFILE_WAIT_SECONDS:g}]")
        out["seconds"] = seconds
    if "hz" in params:
        try:
            hz = float(params["hz"][0])
        except ValueError:
            raise ApiError(400, "hz must be a number")
        if not 0 < hz <= MAX_PROFILE_QUERY_HZ:
            raise ApiError(400, f"hz must be in "
                                f"(0, {MAX_PROFILE_QUERY_HZ:g}]")
        out["hz"] = hz
    if "format" in params:
        fmt = params["format"][0]
        if fmt not in ("collapsed", "json"):
            raise ApiError(400, f"unknown profile format {fmt!r}; "
                                f"use 'collapsed' or 'json'")
        out["format"] = fmt
    return out


#: Artifact tiers the ``/v1/artifacts`` surface serves — exactly the blob
#: codec set (:data:`repro.store.blob.CODECS`), restated here so the wire
#: contract has no import edge into the store.
ARTIFACT_TIERS = ("tree", "result", "core")

#: Content type of a raw ``.npz`` artifact body.
ARTIFACT_CONTENT_TYPE = "application/octet-stream"

#: Why an artifact is being pushed; bounds the per-reason telemetry.
ARTIFACT_REASONS = ("replica", "rebalance")

#: Artifact keys are content fingerprints: exactly one sha256 hex digest.
#: Validated before any path math — a key is a filesystem path component
#: on the serving side, so nothing traversal-shaped may pass.
_ARTIFACT_KEY_RE = re.compile(r"\A[0-9a-f]{64}\Z")


def parse_artifact_ref(tier: str, key: str) -> Tuple[str, str]:
    """Validate one ``/v1/artifacts/<tier>/<key>`` reference.

    Shared by GET and POST on node and router alike; a bad tier or a
    non-fingerprint key is a 400 envelope before any backend runs.
    """
    if tier not in ARTIFACT_TIERS:
        raise ApiError(400, f"unknown artifact tier {tier!r}; "
                            f"use one of {ARTIFACT_TIERS}")
    if not _ARTIFACT_KEY_RE.match(key):
        raise ApiError(400, "artifact key must be a 64-char hex fingerprint")
    return tier, key


def parse_reason_param(query: str) -> str:
    """``reason=`` on an artifact push (``replica`` default)."""
    reason = parse_qs(query).get("reason", [ARTIFACT_REASONS[0]])[0]
    if reason not in ARTIFACT_REASONS:
        raise ApiError(400, f"unknown push reason {reason!r}; "
                            f"use one of {ARTIFACT_REASONS}")
    return reason


def parse_events_limit(query: str) -> Optional[int]:
    """``limit=`` for ``GET /v1/admin/events`` (``None`` = whole ring)."""
    params = parse_qs(query)
    if "limit" not in params:
        return None
    try:
        limit = int(params["limit"][0])
    except ValueError:
        raise ApiError(400, "limit must be an integer")
    if not 1 <= limit <= MAX_EVENTS_LIMIT:
        raise ApiError(400, f"limit must be in [1, {MAX_EVENTS_LIMIT}]")
    return limit


def normalize_endpoint(path: str) -> str:
    """The path normalized for metric labels (bounded cardinality)."""
    parts = [p for p in path.split("/") if p]
    if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
        return "/v1/jobs/{id}"
    if len(parts) == 3 and parts[:2] == ["v1", "traces"]:
        return "/v1/traces/{id}"
    if len(parts) == 4 and parts[:2] == ["v1", "artifacts"]:
        tier = parts[2] if parts[2] in ARTIFACT_TIERS else "{tier}"
        return f"/v1/artifacts/{tier}/{{key}}"
    return "/" + "/".join(parts) if parts else "/"


# ----------------------------------------------------------- wire messages

@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str
    query: str = ""
    #: Header names lowercased by the transport.
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def target(self) -> str:
        """The original request target (path + query), for access logs."""
        return f"{self.path}?{self.query}" if self.query else self.path


@dataclass
class Response:
    """One response: status, encoded body, and extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: Close the connection after this response (transport hint).
    close: bool = False


def json_response(status: int, obj: Any,
                  node: Optional[str] = None) -> Response:
    """Encode ``obj`` exactly as the legacy servers did (byte-identical)."""
    response = Response(status, json.dumps(obj).encode())
    if node:
        response.headers["X-Repro-Node"] = node
    return response


def error_response(exc: ApiError) -> Response:
    """The envelope response for one :class:`ApiError`."""
    response = json_response(
        exc.status, error_envelope(exc.code, str(exc), exc.retryable))
    if exc.retry_after is not None:
        response.headers["Retry-After"] = f"{exc.retry_after:g}"
    return response


# ---------------------------------------------------------------- dispatch

class WireAPI:
    """Routes parsed ``/v1`` requests onto the backend operations.

    Subclasses (the node's ``EngineAPI``, the router's ``RouterAPI``)
    implement the ``async`` operations below; everything else — the route
    table, query validation, body decoding, the error envelope — lives
    here, once.  Large JSON encode/decode hops through a worker thread so
    a 60 MB inline-points job never stalls the event loop.
    """

    #: The host's structured access-event ring, attached by
    #: :class:`~repro.api.http.AsyncHTTPHost`; ``GET /v1/admin/events``
    #: and the dump bundle serve it.
    event_log: EventLog

    # Backend operations ------------------------------------------------
    async def healthz(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def metrics_json(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def metrics_text(self) -> str:
        raise NotImplementedError

    async def submit(self, data: Dict[str, Any],
                     trace_header: Optional[str]
                     ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Accept one job body; returns ``(202 body, serving node)``."""
        raise NotImplementedError

    async def job(self, job_id: str, wait: float
                  ) -> Tuple[Union[Dict[str, Any], bytes], Optional[str]]:
        """Look one job up; returns ``(body, serving node)``.  ``body``
        is a dict to encode, or an already-encoded JSON body."""
        raise NotImplementedError

    async def flush(self, data: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    async def compact(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def traces(self, query: Dict[str, Any]) -> Dict[str, Any]:
        """Archived-trace query (validated kwargs from
        :func:`parse_traces_query`)."""
        raise NotImplementedError

    async def trace(self, trace_id: str
                    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """One archived trace; returns ``(record body, serving node)``."""
        raise NotImplementedError

    async def events(self, limit: Optional[int]) -> Dict[str, Any]:
        """The in-memory structured-event ring (newest ``limit``)."""
        return {"events": self.event_log.recent(limit),
                "stats": self.event_log.stats()}

    async def profile(self, seconds: Optional[float],
                      hz: Optional[float]) -> Dict[str, Any]:
        """A sampling-profiler document (burst capture when ``seconds``
        is set, the recent-sample ring otherwise)."""
        raise NotImplementedError

    async def dump(self) -> Dict[str, Any]:
        """Flight-recorder snapshot: one debug bundle for postmortems
        (the dispatch adds the event ring)."""
        raise NotImplementedError

    async def artifact_list(self) -> Dict[str, Any]:
        """The store's artifact catalogue (``{"artifacts": [...]}``)."""
        raise NotImplementedError

    async def artifact_get(self, tier: str, key: str
                           ) -> Tuple[bytes, Optional[str]]:
        """One artifact's raw blob bytes; ``(bytes, serving node)``.

        The bytes are the on-disk ``.npz`` container verbatim — the wire
        format IS the store format, so replication and peer-fetch are
        byte-identical by construction.  An absent artifact raises a 404
        :class:`ApiError` with :data:`ERR_NOT_FOUND`.
        """
        raise NotImplementedError

    async def artifact_put(self, tier: str, key: str, data: bytes,
                           reason: str) -> Dict[str, Any]:
        """Ingest one artifact's raw blob bytes; returns the verdict body
        (``{"stored": bool}``)."""
        raise NotImplementedError

    # Dispatch ----------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """One request in, one response out; library errors → envelopes."""
        try:
            return await self._dispatch(request)
        except ApiError as exc:
            return error_response(exc)
        except InvalidInputError as exc:
            return error_response(ApiError(400, str(exc)))
        except ServiceError as exc:
            # The request was fine; the engine is shutting down — an
            # availability condition, not a client error.
            return error_response(
                ApiError(503, str(exc), retryable=True))
        except ClusterError as exc:
            return error_response(
                ApiError(503, str(exc), retryable=True))

    async def _dispatch(self, request: Request) -> Response:
        parts = [p for p in request.path.split("/") if p]
        if request.method == "GET":
            if parts == ["v1", "healthz"]:
                return json_response(200, await self.healthz())
            if parts == ["v1", "stats"]:
                return await self._encode(200, await self.stats())
            if parts == ["v1", "metrics"]:
                if parse_format_param(request.query) == "json":
                    return await self._encode(200, await self.metrics_json())
                text = await self.metrics_text()
                return Response(200, text.encode(), PROMETHEUS_CONTENT_TYPE)
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                wait = parse_wait_param(request.query)
                body, node = await self.job(parts[2], wait)
                return await self._encode(200, body, node=node)
            if parts == ["v1", "traces"]:
                filters = parse_traces_query(request.query)
                return await self._encode(200, await self.traces(filters))
            if len(parts) == 3 and parts[:2] == ["v1", "traces"]:
                body, node = await self.trace(parts[2])
                return await self._encode(200, body, node=node)
            if parts == ["v1", "profile"]:
                opts = parse_profile_query(request.query)
                doc = await self.profile(opts["seconds"], opts["hz"])
                if opts["format"] == "json":
                    return await self._encode(200, doc)
                text = render_collapsed(doc)
                return Response(200, text.encode(),
                                "text/plain; charset=utf-8")
            if parts == ["v1", "admin", "events"]:
                limit = parse_events_limit(request.query)
                return await self._encode(200, await self.events(limit))
            if parts == ["v1", "artifacts"]:
                return await self._encode(200, await self.artifact_list())
            if len(parts) == 4 and parts[:2] == ["v1", "artifacts"]:
                tier, key = parse_artifact_ref(parts[2], parts[3])
                data, node = await self.artifact_get(tier, key)
                response = Response(200, data, ARTIFACT_CONTENT_TYPE)
                if node:
                    response.headers["X-Repro-Node"] = node
                return response
        elif request.method == "POST":
            if parts == ["v1", "jobs"]:
                if not request.body:
                    raise ApiError(400, "missing or oversized request body")
                data = await asyncio.to_thread(self._decode, request.body)
                accepted, node = await self.submit(
                    data, request.headers.get("x-repro-trace"))
                return json_response(202, accepted, node=node)
            if parts == ["v1", "admin", "flush"]:
                return json_response(
                    200, await self.flush(self._admin_body(request)))
            if parts == ["v1", "admin", "compact"]:
                self._admin_body(request)  # bad admin bodies still 400
                return json_response(200, await self.compact())
            if parts == ["v1", "admin", "dump"]:
                self._admin_body(request)  # bad admin bodies still 400
                bundle = await self.dump()
                bundle["events"] = self.event_log.recent()
                bundle["events_stats"] = self.event_log.stats()
                return await self._encode(200, bundle)
            if len(parts) == 4 and parts[:2] == ["v1", "artifacts"]:
                tier, key = parse_artifact_ref(parts[2], parts[3])
                if not request.body:
                    raise ApiError(400, "missing or oversized request body")
                reason = parse_reason_param(request.query)
                verdict = await self.artifact_put(tier, key, request.body,
                                                  reason)
                return json_response(200, verdict)
        else:
            raise ApiError(405, f"method {request.method} not allowed",
                           code=ERR_NOT_FOUND)
        raise ApiError(404, f"no such endpoint: {request.path}",
                       code=ERR_NOT_FOUND)

    @staticmethod
    def _decode(raw: bytes) -> Any:
        # orjson refuses NaN/Infinity literals, numbers that overflow a
        # double and bad UTF-8, and parses deep nesting without recursing;
        # its JSONDecodeError subclasses the stdlib one.
        try:
            return orjson.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"bad JSON body: {exc}")

    def _admin_body(self, request: Request) -> Dict[str, Any]:
        """Decode an optional admin-endpoint JSON body (``{}`` if empty)."""
        if not request.body.strip():
            return {}
        data = self._decode(request.body)
        if not isinstance(data, dict):
            raise ApiError(400, "admin body must be a JSON object")
        return data

    @staticmethod
    async def _encode(status: int, obj: Any,
                      node: Optional[str] = None) -> Response:
        """JSON-encode off the event loop (job payloads can be ~60 MB);
        a ``bytes`` body is already encoded and passes through."""
        if isinstance(obj, bytes):
            body = obj
        else:
            body = await asyncio.to_thread(lambda: json.dumps(obj).encode())
        response = Response(status, body)
        if node:
            response.headers["X-Repro-Node"] = node
        return response
