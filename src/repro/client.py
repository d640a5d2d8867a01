"""Blocking client for the ``/v1`` wire API.

One :class:`Client` speaks to a single base URL — a ``repro serve`` node
or a ``repro route`` router; the contract is identical by design, so the
caller never needs to know which is answering (fleet-shaped stats
documents are the only tell).  It is the one blocking client of the
contract: the CLI, the router's node calls, ``repro rebalance`` and a
node's replica peer fetch all use it.

Error taxonomy, keyed on the server's error envelope (``{"error":
{"code", "message", "retryable"}}``, see :mod:`repro.api.contract`)
rather than status-class guessing:

* :class:`~repro.errors.NodeUnavailableError` — connection refused/reset,
  timeout, or a *retryable* error response (5xx).  The server may be
  down; the router fails the work over to the next node in preference
  order.
* :class:`~repro.errors.NodeOverloadedError` — a 429 shed.  Failover-
  eligible (another node may have headroom) but the server is *alive*:
  the router must not mark it down, and ``retry_after`` carries the
  server's ``Retry-After`` hint.
* :class:`~repro.errors.NodeHTTPError` — a non-retryable error (4xx:
  unknown job id, bad spec).  The *request* is at fault; failing over
  would just repeat the mistake on another node, so it propagates with
  the upstream status code and machine-readable ``error_code``.

Responses without an envelope (legacy ``{"error": str}`` or non-JSON)
fall back to the status class: 5xx retryable, 4xx not.

Retries apply only to idempotent GETs (a lookup repeated is harmless); a
``POST /v1/jobs`` is never retried against the *same* server —
re-dispatch on a different node is the router's at-most-one failover.

Retry pacing is :func:`backoff_delay`: capped exponential backoff with
*deterministic* jitter (a multiplicative hash of the attempt counter —
no RNG, so tests and replays see identical schedules), except that a 429
shed's ``Retry-After`` hint, when present, overrides the exponential
curve — the server knows its own drain rate better than any client-side
guess.

Example
-------
>>> from repro.client import Client                        # doctest: +SKIP
>>> client = Client("http://127.0.0.1:8321")               # doctest: +SKIP
>>> result = client.submit_and_wait(                       # doctest: +SKIP
...     {"dataset": "Uniform100M2:100000", "algorithm": "emst"})
>>> result["status"]                                       # doctest: +SKIP
'done'
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union
from urllib.parse import quote, urlencode, urlsplit

import orjson

from repro.api.contract import parse_error_envelope
from repro.errors import (
    ClusterError,
    InvalidInputError,
    NodeHTTPError,
    NodeOverloadedError,
    NodeUnavailableError,
)
from repro.obs import TRACE_HEADER, to_header

if TYPE_CHECKING:  # a client never loads the server-side packages
    from repro.service.jobs import JobSpec

#: Seconds a single HTTP request may take before the server counts as down.
DEFAULT_TIMEOUT = 30.0
#: Extra attempts for idempotent GETs (total attempts = retries + 1).
DEFAULT_RETRIES = 1
#: First-retry delay of the exponential backoff curve (seconds).
BACKOFF_BASE = 0.05
#: Ceiling of the exponential curve — a client-side guess never waits
#: longer than this between attempts.
BACKOFF_CAP = 2.0
#: Ceiling on an honored ``Retry-After`` hint: a server asking for more
#: than this is trusted about *direction* but not magnitude.
RETRY_AFTER_CAP = 30.0

#: Job statuses after which the body carries the (possibly failed) result.
TERMINAL_STATUSES = ("done", "failed")

#: Server-side cap on one long-poll; longer waits re-poll in chunks.
_WAIT_CHUNK = 30.0


def backoff_delay(attempt: int,
                  retry_after: Optional[float] = None) -> float:
    """Seconds to sleep before retry number ``attempt`` (1-based).

    With a positive ``retry_after`` (the server's own 429 hint) that
    value wins, capped at :data:`RETRY_AFTER_CAP`.  Otherwise the delay
    is capped exponential — ``BACKOFF_BASE * 2**(attempt-1)`` up to
    :data:`BACKOFF_CAP` — scaled into ``[50%, 100%]`` by deterministic
    jitter: Knuth's multiplicative hash of the attempt counter, so two
    clients that failed together still decorrelate their retries without
    any RNG (replays and tests see the exact same schedule).
    """
    if attempt < 1:
        raise ClusterError(f"attempt must be >= 1, got {attempt}")
    if retry_after is not None and retry_after > 0:
        return min(float(retry_after), RETRY_AFTER_CAP)
    delay = min(BACKOFF_BASE * 2.0 ** (attempt - 1), BACKOFF_CAP)
    fraction = ((attempt * 2654435761) & 0xFFFFFFFF) / 2.0 ** 32
    return delay * (0.5 + 0.5 * fraction)


def _segment(value: str) -> str:
    """One caller-supplied path segment, percent-encoded.

    Server-issued ids (``job-000001``, ``tr-<hex>``, tier names, hex
    keys) are unreserved characters and pass through unchanged.
    """
    return quote(value, safe="")


class Client:
    """Blocking client for one ``/v1`` endpoint (node or router).

    Stdlib only and thread-safe: every call opens its own connection.
    """

    def __init__(self, url: str, *, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES) -> None:
        if not url.startswith(("http://", "https://")):
            raise InvalidInputError(
                f"node URL must be http(s)://, got {url!r}")
        try:
            urlsplit(url).port  # a bad port raises here, not on every call
        except ValueError as exc:
            raise InvalidInputError(f"bad node URL {url!r}: {exc}") from None
        if timeout <= 0:
            raise ClusterError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ClusterError(f"retries must be >= 0, got {retries}")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries

    # ------------------------------------------------------------- transport

    def _request(self, path: str, body: Optional[Dict[str, Any]] = None, *,
                 timeout: Optional[float] = None,
                 idempotent: bool = True,
                 extra_headers: Optional[Dict[str, str]] = None,
                 decode: bool = True,
                 raw_body: Optional[bytes] = None,
                 binary: bool = False) -> Any:
        """One round trip; returns the decoded JSON body.

        ``body`` switches the request to POST; ``raw_body`` does too but
        ships opaque bytes (artifact pushes) instead of JSON.
        ``decode=False`` returns the raw text (the Prometheus
        exposition); ``binary=True`` returns the untouched response bytes
        (artifact blobs).  Connection-level failures and retryable error
        responses raise :class:`NodeUnavailableError` (a 429 shed the
        :class:`NodeOverloadedError` refinement, after ``retries`` extra
        attempts when ``idempotent``, paced by :func:`backoff_delay`);
        non-retryable errors raise :class:`NodeHTTPError`.
        """
        url = f"{self.url}{path}"
        if raw_body is not None:
            data: Optional[bytes] = raw_body
            headers = {"Content-Type": "application/octet-stream"}
        else:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} \
                if body is not None else {}
        if extra_headers:
            headers.update(extra_headers)
        attempts = (self.retries + 1) if idempotent else 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(backoff_delay(
                    attempt, getattr(last_error, "retry_after", None)))
            request = urllib.request.Request(url, data=data, headers=headers)
            try:
                with urllib.request.urlopen(
                        request,
                        timeout=timeout if timeout is not None
                        else self.timeout) as response:
                    raw = response.read()
                    if binary:
                        return raw
                    if not decode:
                        return raw.decode()
                    try:  # orjson refuses a non-finite payload's Infinity
                        return orjson.loads(raw)
                    except orjson.JSONDecodeError:
                        return json.loads(raw)
            except urllib.error.HTTPError as exc:
                error = self._typed_error(exc)
                if isinstance(error, NodeUnavailableError):
                    last_error = error
                    if attempt + 1 < attempts:
                        continue
                    raise error from exc
                raise error from exc
            except (urllib.error.URLError, socket.timeout, TimeoutError,
                    ConnectionError, OSError,
                    json.JSONDecodeError) as exc:
                # A truncated/garbled body (JSONDecodeError) means the
                # server died mid-response — unavailability, not a bad
                # request.
                last_error = exc
        raise NodeUnavailableError(
            f"{url} unreachable: {last_error}") from last_error

    def _typed_error(self, exc: urllib.error.HTTPError) -> ClusterError:
        """The typed exception for one HTTP error response.

        Keyed on the envelope's ``retryable`` flag when present, the
        status class (5xx retryable) otherwise.
        """
        error_code, detail, retryable = self._parse_body(exc)
        if retryable is None:
            retryable = exc.code >= 500
        if exc.code == 429:
            return NodeOverloadedError(
                f"{self.url} shed the request (429): {detail}",
                retry_after=self._retry_after(exc))
        if retryable:
            return NodeUnavailableError(
                f"{self.url} answered {exc.code}: {detail}")
        return NodeHTTPError(exc.code, detail, error_code=error_code,
                             retryable=False)

    @staticmethod
    def _parse_body(exc: urllib.error.HTTPError
                    ) -> Tuple[Optional[str], str, Optional[bool]]:
        try:
            return parse_error_envelope(json.loads(exc.read()))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None, str(exc.reason), None

    @staticmethod
    def _retry_after(exc: urllib.error.HTTPError) -> Optional[float]:
        try:
            return float(exc.headers.get("Retry-After"))
        except (TypeError, ValueError):
            return None

    # ------------------------------------------------------------------ jobs

    def submit(self, spec: Union["JobSpec", Dict[str, Any]],
               trace: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """POST one job; returns the 202 body (``job_id``, ``status``).

        ``trace`` is a router-side trace context shipped in the
        ``X-Repro-Trace`` header, so the node appends its spans to the
        routing history instead of starting a fresh trace.
        """
        body = spec if isinstance(spec, dict) else spec.to_dict()
        extra = {TRACE_HEADER: to_header(trace)} if trace is not None \
            else None
        return self._request("/v1/jobs", body, idempotent=False,
                             extra_headers=extra)

    def poll(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        """GET one job, long-polling up to ``wait_s`` seconds server-side.

        The HTTP timeout stretches to cover the requested wait, so a
        legitimate long-poll is not misread as server death.
        """
        path = f"/v1/jobs/{_segment(job_id)}"
        if wait_s > 0:
            path += f"?wait_s={wait_s:.3f}"
        return self._request(path, timeout=self.timeout + max(0.0, wait_s))

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The terminal job body, or ``None`` while still in flight."""
        body = self.poll(job_id)
        return body if body.get("status") in TERMINAL_STATUSES else None

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block until ``job_id`` reaches a terminal status.

        Long-polls in bounded server-side chunks (the wire caps one poll
        at 60 s).  Raises the builtin :class:`TimeoutError` if the job is
        still in flight after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            chunk = max(0.0, min(deadline - time.monotonic(), _WAIT_CHUNK))
            body = self.poll(job_id, wait_s=chunk)
            if body.get("status") in TERMINAL_STATUSES:
                return body
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still "
                                   f"{body.get('status')} after {timeout}s")

    def submit_and_wait(self, spec: Union["JobSpec", Dict[str, Any]],
                        timeout: float = 60.0) -> Dict[str, Any]:
        """Submit one job and block for its terminal body."""
        return self.wait(self.submit(spec)["job_id"], timeout=timeout)

    def trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's span tree (``None`` until terminal, or if disabled)."""
        body = self.result(job_id)
        return body.get("trace") if body else None

    # ----------------------------------------------------------- diagnostics

    def healthz(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request("/v1/healthz", timeout=timeout)

    def stats(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request("/v1/stats", timeout=timeout)

    def metrics_json(self, *, timeout: Optional[float] = None
                     ) -> Dict[str, Any]:
        """The metrics registry document (``/v1/metrics?format=json``)."""
        return self._request("/v1/metrics?format=json", timeout=timeout)

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``/v1/metrics``)."""
        return self._request("/v1/metrics", decode=False)

    def traces(self, *, since: Optional[float] = None,
               min_duration_ms: Optional[float] = None,
               outcome: Optional[str] = None,
               algorithm: Optional[str] = None,
               limit: Optional[int] = None) -> Dict[str, Any]:
        """``GET /v1/traces`` — archived (tail-sampled) trace records.

        Against a router this answers fleet-wide, node-tagged and merged
        slowest-first.  Filters: ``since`` (unix seconds),
        ``min_duration_ms``, ``outcome`` (``done``/``failed``),
        ``algorithm``, ``limit``; ``None`` means unfiltered.
        """
        filters = dict(since=since, min_duration_ms=min_duration_ms,
                       outcome=outcome, algorithm=algorithm, limit=limit)
        params = {k: v for k, v in filters.items() if v is not None}
        path = "/v1/traces"
        if params:
            path += "?" + urlencode(params)
        return self._request(path)

    def archived_trace(self, trace_id: str) -> Dict[str, Any]:
        """``GET /v1/traces/<id>`` — one archived trace record.

        (Distinct from :meth:`trace`, which reads the live span tree off
        a finished job body.)  An unknown id raises
        :class:`~repro.errors.NodeHTTPError` with
        ``error_code="unknown_trace"``.
        """
        return self._request(f"/v1/traces/{_segment(trace_id)}")

    def profile(self, seconds: Optional[float] = None,
                hz: Optional[float] = None) -> Dict[str, Any]:
        """``GET /v1/profile`` — a sampling-profiler document.

        With ``seconds`` set the server burst-samples for that window
        (the call blocks for its duration, and the HTTP timeout
        stretches to cover it); without it the server answers instantly
        from its ring of recent always-on samples.  Against a router
        this captures every node concurrently and returns the
        node-tagged fleet merge.  ``enabled: false`` marks a server
        running with observability off.  Not retried: a repeated capture
        doubles the sampling window.  For collapsed-stack text, pass the
        document to :func:`repro.obs.render_collapsed`.
        """
        params: Dict[str, Any] = {"format": "json"}
        if seconds is not None:
            params["seconds"] = f"{float(seconds):.3f}"
        if hz is not None:
            params["hz"] = f"{float(hz):g}"
        return self._request(
            "/v1/profile?" + urlencode(params),
            timeout=self.timeout + max(0.0, float(seconds or 0.0)),
            idempotent=False)

    def events(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """``GET /v1/admin/events`` — the server's structured-event ring
        (newest ``limit``)."""
        path = "/v1/admin/events"
        if limit is not None:
            path += f"?limit={int(limit)}"
        return self._request(path)

    def dump(self) -> Dict[str, Any]:
        """``POST /v1/admin/dump`` — the flight-recorder debug bundle."""
        return self._request("/v1/admin/dump", {}, idempotent=False)

    # ------------------------------------------------------------- artifacts

    def artifacts(self, *, timeout: Optional[float] = None
                  ) -> Dict[str, Any]:
        """``GET /v1/artifacts`` — the on-disk artifact inventory.

        A node lists its own store; a router answers per-node for the
        whole fleet.
        """
        return self._request("/v1/artifacts", timeout=timeout)

    def artifact(self, tier: str, key: str) -> bytes:
        """``GET /v1/artifacts/<tier>/<key>`` — one raw ``.npz`` blob.

        The bytes are the store's own file format (the wire format *is*
        the store format).  A server that does not hold the blob answers
        404 (:class:`~repro.errors.NodeHTTPError`) — the expected miss
        during peer fetch, not a health event.
        """
        return self._request(
            f"/v1/artifacts/{_segment(tier)}/{_segment(key)}", binary=True)

    def artifact_put(self, tier: str, key: str, data: bytes, *,
                     reason: str = "replica") -> Dict[str, Any]:
        """``POST /v1/artifacts/<tier>/<key>`` — push one blob into a
        node's store (validated, atomically renamed).

        Idempotent by construction (content-addressed key) but not
        retried: the pusher owns the retry policy, and a duplicated push
        is merely wasted bytes.  Routers refuse pushes; target the
        holding node directly.  Returns the ``{"stored": bool, ...}``
        receipt.
        """
        path = (f"/v1/artifacts/{_segment(tier)}/{_segment(key)}?"
                + urlencode({"reason": reason}))
        return self._request(path, raw_body=data, idempotent=False)

    # ----------------------------------------------------------------- admin

    def flush(self, tier: Optional[str] = None) -> Dict[str, Any]:
        """``POST /v1/admin/flush`` — whole cache, or one tier
        (``bvh`` / ``result`` / ``core``)."""
        body: Dict[str, Any] = {} if tier is None else {"tier": tier}
        return self._request("/v1/admin/flush", body, idempotent=False)

    def compact(self) -> Dict[str, Any]:
        """``POST /v1/admin/compact`` — force a store journal compaction."""
        return self._request("/v1/admin/compact", {}, idempotent=False)
