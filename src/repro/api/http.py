"""Asyncio HTTP/1.1 host for a :class:`~repro.api.contract.WireAPI`.

One event loop serves every connection; a ``wait_s=`` long-poll parks an
``asyncio`` task on the engine future (via :func:`asyncio.wrap_future`)
instead of pinning a handler thread, so concurrent waiters scale to the
task budget, not the thread pool — hundreds of long-polls on a 4-worker
engine cost a few KB each.

The host keeps the exact lifecycle facade of the
``ThreadingHTTPServer`` it replaces — ``server_address`` is readable the
moment the constructor returns (the socket binds eagerly, so a busy port
still raises ``OSError`` from ``create_server``), ``serve_forever()``
blocks the calling thread running the loop, ``shutdown()`` is
thread-safe, ``server_close()`` tears everything down — so every
existing call site (tests, CLI, smokes) runs unchanged.

Admission control: at most ``max_inflight`` requests are in the handler
at once; beyond that the host sheds with a retryable ``429`` envelope
and ``Retry-After`` instead of queueing unboundedly.  ``/v1/healthz``
and ``/v1/metrics`` are exempt so probes and scrapes keep answering
under overload (a shed health check would look exactly like a dead
node).  Backends add a second, deeper bound at submit time (the engine's
job queue); this one protects the loop itself.

The host owns what every ``/v1`` server shares: the structured access-
event ring (served by ``GET /v1/admin/events``) and the HTTP instruments
it registers on the backend's metrics registry — request latency and
counts, sheds, in-flight requests and event-loop lag.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from typing import Any, Optional, Tuple

import repro
from repro.api.contract import (
    ERR_OVERLOADED,
    ApiError,
    MAX_BODY_BYTES,
    Request,
    Response,
    WireAPI,
    error_response,
    normalize_endpoint,
)
from repro.obs import EventLog, MetricsRegistry
from repro.obs.profiler import PAUSE_BUCKETS

#: Concurrent in-handler requests before the host sheds (per server).
DEFAULT_MAX_INFLIGHT = 1024

#: Endpoints that must keep answering while the host sheds load.
_SHED_EXEMPT = frozenset({"/v1/healthz", "/v1/metrics"})

#: Stream buffer limit — X-Repro-Trace headers carry whole span trees.
_STREAM_LIMIT = 1 << 20

#: Seconds an idle keep-alive connection may sit between requests.
_IDLE_TIMEOUT = 60.0

#: Interval of the event-loop lag probe: long enough to be negligible,
#: short enough that a stalled loop shows up within a scrape interval.
_LAG_PROBE_INTERVAL = 0.25

_PHRASES = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class AsyncHTTPHost:
    """Serve one :class:`WireAPI` on a private asyncio event loop.

    Drop-in lifecycle replacement for ``ThreadingHTTPServer``: construct
    (binds eagerly), ``serve_forever()`` on a thread, ``shutdown()`` +
    ``server_close()`` to stop.

    ``registry`` receives the HTTP instruments.  ``node_name``, when set,
    goes out as the ``X-Repro-Node`` header of every response that does
    not already name its serving node.  ``access_log_sample`` keeps that
    fraction of access events (deterministically — every
    ``1/sample``-th request); ``verbose`` also writes the kept events to
    stderr as JSONL.
    """

    def __init__(self, api: WireAPI, host: str = "127.0.0.1",
                 port: int = 0, *, registry: MetricsRegistry,
                 node_name: Optional[str] = None,
                 verbose: bool = False,
                 access_log_sample: float = 1.0,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        self.api = api
        self.max_inflight = max_inflight
        self.node_name = node_name
        self.inflight = 0
        self._loop = asyncio.new_event_loop()
        self._running = threading.Event()
        self._stopped = threading.Event()
        self._closed = False
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(self._handle_client, host, port,
                                     limit=_STREAM_LIMIT))
        except BaseException:
            self._loop.close()
            raise
        self.server_address: Tuple[Any, ...] = \
            self._server.sockets[0].getsockname()
        self.events = EventLog(stream=sys.stderr if verbose else None,
                               sample=access_log_sample)
        api.event_log = self.events
        self.http_latency = registry.histogram(
            "repro_http_request_seconds",
            "HTTP handler latency by (normalized) endpoint.",
            labels=("endpoint",))
        self.http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labels=("endpoint", "code"))
        self.shed_total = registry.counter(
            "repro_http_shed_total",
            "Requests shed by admission control (429), by endpoint.",
            labels=("endpoint",))
        registry.gauge(
            "repro_http_inflight_requests",
            "Requests currently inside the HTTP handler.",
            fn=lambda: float(self.inflight))
        #: ``serve_forever()`` runs a periodic probe task that measures
        #: how late ``asyncio.sleep`` wakes — the direct signal that
        #: something is starving the loop (oversized sync work, GC).
        self.loop_lag = registry.histogram(
            "repro_event_loop_lag_seconds",
            "Asyncio event-loop scheduling lag measured by a periodic "
            "probe.", buckets=PAUSE_BUCKETS)

    # ------------------------------------------------------------ lifecycle
    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until ``shutdown()``."""
        asyncio.set_event_loop(self._loop)
        self._running.set()
        probe = self._loop.create_task(self._lag_probe())
        try:
            self._loop.run_forever()
        finally:
            probe.cancel()
            self._running.clear()
            self._stopped.set()

    async def _lag_probe(self) -> None:
        """Measure how late the loop wakes a periodic sleep."""
        while True:
            expected = self._loop.time() + _LAG_PROBE_INTERVAL
            await asyncio.sleep(_LAG_PROBE_INTERVAL)
            self.loop_lag.observe(max(0.0, self._loop.time() - expected))

    def shutdown(self) -> None:
        """Stop ``serve_forever()`` from any thread (idempotent)."""
        if not self._running.is_set():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._stopped.wait(timeout=30)

    def server_close(self) -> None:
        """Close the listener, drain connection tasks, free the loop."""
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        self._server.close()
        pending = [t for t in asyncio.all_tasks(self._loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.wait(pending, timeout=5))
        self._loop.run_until_complete(self._server.wait_closed())
        try:
            self._loop.run_until_complete(asyncio.wait_for(
                self._loop.shutdown_default_executor(), timeout=5))
        except (asyncio.TimeoutError, RuntimeError):
            pass
        close = getattr(self.api, "close", None)
        if close is not None:
            close()
        self._loop.close()

    # ----------------------------------------------------------- connection
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                request, fatal = await self._read_request(reader)
                if request is None:
                    if fatal is not None:
                        await self._write_response(writer, fatal)
                    break
                keep_alive = self._keep_alive(request)
                response = await self._respond(request, client)
                response.close = response.close or not keep_alive
                await self._write_response(writer, response)
                if response.close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[Optional[Request],
                                       Optional[Response]]:
        """One request off the stream, or ``(None, error-to-send|None)``."""
        try:
            line = await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT)
        except asyncio.TimeoutError:
            return None, None  # idle keep-alive connection; just close
        except ValueError:
            return None, self._fatal_400("request line too long")
        if not line.strip():
            return None, None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None, self._fatal_400("malformed request line")
        headers = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                return None, self._fatal_400("header line too long")
            if raw in (b"\r\n", b"\n", b""):
                break
            try:
                name, _, value = raw.decode("latin-1").partition(":")
            except ValueError:
                return None, self._fatal_400("malformed header")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Can't resync the stream past a body we refuse to read.
            return None, self._fatal_400(
                "bad Content-Length" if length < 0
                else "missing or oversized request body")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return Request(method=method, path=path, query=query,
                       headers=headers, body=body), None

    @staticmethod
    def _fatal_400(message: str) -> Response:
        response = error_response(ApiError(400, message))
        response.close = True
        return response

    @staticmethod
    def _keep_alive(request: Request) -> bool:
        return request.headers.get("connection", "").lower() != "close"

    # ------------------------------------------------------------- dispatch
    async def _respond(self, request: Request, client: str) -> Response:
        endpoint = normalize_endpoint(request.path)
        started = self._loop.time()
        if self.inflight >= self.max_inflight and endpoint not in _SHED_EXEMPT:
            response = error_response(ApiError(
                429, f"server at capacity ({self.max_inflight} requests "
                     f"in flight); retry shortly",
                code=ERR_OVERLOADED, retryable=True, retry_after=1))
        else:
            self.inflight += 1
            try:
                response = await self.api.handle(request)
            except Exception as exc:  # the envelope, even for surprises
                response = error_response(ApiError(500, str(exc)))
            finally:
                self.inflight -= 1
        if response.status == 429:
            # Both shed layers (transport inflight cap, backend admission
            # queue) land here, so the counter covers every 429 served.
            self.shed_total.inc(endpoint=endpoint)
        if self.node_name and "X-Repro-Node" not in response.headers:
            response.headers["X-Repro-Node"] = self.node_name
        self.http_latency.observe(self._loop.time() - started,
                                  endpoint=endpoint)
        self.http_requests.inc(endpoint=endpoint, code=str(response.status))
        self.events.emit("http_access", method=request.method,
                         path=request.target, code=response.status,
                         client=client)
        return response

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response) -> None:
        phrase = _PHRASES.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {phrase}",
                f"Server: repro-service/{repro.__version__}",
                f"Content-Type: {response.content_type}",
                f"Content-Length: {len(response.body)}"]
        head += [f"{name}: {value}"
                 for name, value in response.headers.items()]
        if response.close:
            head.append("Connection: close")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
        writer.write(response.body)
        await writer.drain()
