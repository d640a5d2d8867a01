"""JSON-over-HTTP front end for the serving engine (stdlib only).

Endpoints (all JSON):

``POST /v1/jobs``
    Body is a :meth:`~repro.service.jobs.JobSpec.to_dict` object.  Returns
    ``202 {"job_id": ..., "status": "pending"}``; malformed specs get 400,
    a closed engine 503, a full admission queue 429 + ``Retry-After``.
``GET /v1/jobs/<id>[?wait_s=SECONDS]``
    The job's :class:`~repro.service.jobs.JobResult` once finished
    (:meth:`~repro.service.jobs.JobResult.to_json`: the payload's stored
    bytes, encoded once when the job computed), else
    ``{"job_id": ..., "status": "pending" | "running"}``.  ``wait_s``
    blocks up to that many seconds (bounded, default 0) for completion
    (long-poll) — bridged onto the engine future with
    :func:`asyncio.wrap_future`, so a waiting client costs an asyncio
    task, not a thread.  ``wait`` is an accepted alias (the original
    spelling).
``GET /v1/stats``
    :meth:`Engine.stats` — scheduler throughput plus per-tier cache hit
    rates, memory and disk (tree / result / core-distance tiers and the
    persistent store's occupancy, when one is configured).
``GET /v1/healthz``
    Liveness probe (reports the node name, the resolved
    traversal engine — ``"reference"`` on a node whose compiled kernels
    did not build — and whether a store is attached).  Exempt from
    admission shedding.
``GET /v1/metrics``
    Prometheus text exposition of the engine's metrics registry —
    latency histograms (job, queue-wait, per-phase, store I/O, HTTP),
    cache lookup counters and occupancy gauges; ``?format=json`` returns
    the JSON document form (what ``repro top`` and the router's fleet
    scrape consume).  Exempt from admission shedding.
``POST /v1/admin/flush``
    Drop cached artifacts, memory and disk; returns entries and bytes
    reclaimed.  An optional JSON body ``{"tier": "bvh"|"core"|"result"}``
    restricts the flush to one tier (``bvh`` is the wire name of the tree
    tier); no body (or an empty object) keeps the flush-everything
    behavior.
``POST /v1/admin/compact``
    Force a journal compaction of the persistent store; returns the
    journal lines/bytes reclaimed, or ``{"compacted": null}`` on a
    memory-only node.  No request body required.
``GET /v1/traces[?since=&min_duration_ms=&outcome=&algorithm=&limit=]``
    Archived trace records kept by the tail-sampling retention policy
    (failures, slow jobs, failover/lost traces, plus a deterministic
    sample of the fast majority), slowest first.
``GET /v1/traces/<trace_id>``
    One archived trace record; 404 ``unknown_trace`` if sampled out or
    evicted.
``GET /v1/admin/events[?limit=]``
    The newest entries of the in-memory structured-event ring — remote
    access to what ``--verbose`` writes to stderr.
``POST /v1/admin/dump``
    Flight-recorder snapshot: config, stats, metrics, SLO report,
    inflight jobs, queue depth and the event ring in one debug bundle.
``GET /v1/artifacts``
    The node's persistent-store catalogue (tier, key, nbytes per entry).
``GET /v1/artifacts/<tier>/<key>``
    One artifact's raw ``.npz`` blob bytes — the on-disk file verbatim,
    which is what replica warm-up, peer-fetch and ``repro rebalance``
    stream between nodes; 404 ``not_found`` when absent.
``POST /v1/artifacts/<tier>/<key>[?reason=replica|rebalance]``
    Ingest raw blob bytes into the node's store (validated by
    deserializing before the atomic rename; garbage is a 400).  Returns
    ``{"stored": bool, ...}`` — ``false`` on a memory-only node.

Every response carries an ``X-Repro-Node`` header naming the serving node
(``--name``, defaulting to ``host:port``), so a client behind the cluster
router (:mod:`repro.cluster`) can observe which node answered — the
router forwards the header untouched.  Every non-2xx body is the uniform
``{"error": {"code", "message", "retryable"}}`` envelope
(:mod:`repro.api.contract`).

Built on the shared asyncio host (:class:`repro.api.http.AsyncHTTPHost`):
this module is just the :class:`~repro.api.contract.WireAPI` backend
binding the contract onto an :class:`Engine`, plus admission control —
submissions beyond ``max_queue_depth`` unfinished jobs shed with a
retryable 429 instead of growing the backlog unboundedly.  No
dependencies outside the standard library.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, Optional, Tuple, Union

import repro
from repro.api.contract import (  # noqa: F401 — re-exported wire constants
    ERR_NOT_FOUND,
    ERR_OVERLOADED,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_TRACE,
    ApiError,
    MAX_BODY_BYTES,
    MAX_WAIT_SECONDS,
    PROMETHEUS_CONTENT_TYPE,
    WireAPI,
    parse_wait_param,
)
from repro.api.http import AsyncHTTPHost, DEFAULT_MAX_INFLIGHT
from repro.bvh.traversal import get_default_engine
from repro.errors import InvalidInputError
from repro.obs import from_header
from repro.service.engine import Engine
from repro.service.jobs import JobSpec

#: Default bound on unfinished jobs before submissions shed with 429.
DEFAULT_MAX_QUEUE_DEPTH = 512


class EngineAPI(WireAPI):
    """The ``/v1`` contract bound to one :class:`Engine`.

    Engine calls are blocking (locks, futures, JSON-sized payloads), so
    each hops through ``asyncio.to_thread``; only the long-poll park
    itself stays on the loop, as a task on the wrapped engine future.
    """

    def __init__(self, engine: Engine, *,
                 node_name: Optional[str] = None,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH) -> None:
        self.engine = engine
        self.node_name = node_name
        self.max_queue_depth = max_queue_depth

    async def healthz(self) -> Dict[str, Any]:
        return {"status": "ok",
                "version": repro.__version__,
                "node": self.node_name,
                "traversal": get_default_engine(),
                "persistent": self.engine.store is not None}

    async def stats(self) -> Dict[str, Any]:
        return await asyncio.to_thread(self.engine.stats)

    async def metrics_json(self) -> Dict[str, Any]:
        return await asyncio.to_thread(self.engine.registry.as_dict)

    async def metrics_text(self) -> str:
        return await asyncio.to_thread(
            self.engine.registry.render_prometheus)

    async def submit(self, data: Dict[str, Any],
                     trace_header: Optional[str]
                     ) -> Tuple[Dict[str, Any], Optional[str]]:
        if self.engine.queue_depth() >= self.max_queue_depth:
            raise ApiError(
                429, f"admission queue full "
                     f"({self.max_queue_depth} jobs unfinished); "
                     f"retry shortly",
                code=ERR_OVERLOADED, retryable=True, retry_after=1)

        def _submit() -> str:
            spec = JobSpec.from_dict(data)
            return self.engine.submit(spec, trace=from_header(trace_header))

        job_id = await asyncio.to_thread(_submit)
        return {"job_id": job_id, "status": "pending"}, None

    async def job(self, job_id: str, wait: float
                  ) -> Tuple[Union[Dict[str, Any], bytes], Optional[str]]:
        try:
            result = await asyncio.to_thread(self.engine.poll, job_id)
            if result is None and wait > 0:
                result = await self._wait_for_result(job_id, wait)
            if result is None:
                # Status is only consulted with no result in hand (the
                # record may be retention-evicted once the result is out).
                status = self.engine.status(job_id)
                if status.finished:
                    # Finished between the wait/poll and the status read;
                    # a terminal status must carry its result.
                    result = await asyncio.to_thread(
                        self.engine.poll, job_id)
        except InvalidInputError as exc:
            raise ApiError(404, str(exc), code=ERR_UNKNOWN_JOB)
        if result is None:
            return {"job_id": job_id, "status": status.value}, None
        # The stored payload bytes go out as they are: a finished job's
        # body is a splice, never a re-encode of its payload.  The splice
        # still copies the payload once, so it stays off the event loop.
        return await asyncio.to_thread(result.to_json), None

    async def _wait_for_result(self, job_id: str, wait: float):
        """Park on the engine future for up to ``wait`` seconds.

        The future is shielded: a long-poll timing out must not cancel
        the job.  JobResult futures never raise (failures are FAILED
        results), so abandoning one leaks no unretrieved exception.
        """
        future = self.engine.future(job_id)
        try:
            return await asyncio.wait_for(
                asyncio.shield(asyncio.wrap_future(future)), wait)
        except (asyncio.TimeoutError, FutureTimeoutError):
            return None

    async def flush(self, data: Dict[str, Any]) -> Dict[str, Any]:
        tier = data.get("tier")
        if tier is not None:
            # The BVH tier is "tree" internally (it once held kd-trees
            # too); the wire name matches what operators see in the docs.
            tier = {"bvh": "tree"}.get(tier, tier)
        flushed = await asyncio.to_thread(self.engine.flush, tier)
        return {"status": "ok", "tier": tier, "flushed": flushed}

    async def compact(self) -> Dict[str, Any]:
        return {"status": "ok",
                "compacted": await asyncio.to_thread(self.engine.compact)}

    async def traces(self, query: Dict[str, Any]) -> Dict[str, Any]:
        return await asyncio.to_thread(self.engine.traces, query)

    async def trace(self, trace_id: str
                    ) -> Tuple[Dict[str, Any], Optional[str]]:
        record = await asyncio.to_thread(self.engine.trace, trace_id)
        if record is None:
            raise ApiError(404, f"unknown trace id {trace_id!r}",
                           code=ERR_UNKNOWN_TRACE)
        return record, None

    async def profile(self, seconds: Optional[float],
                      hz: Optional[float]) -> Dict[str, Any]:
        # A capture blocks for its whole window; to_thread keeps the
        # loop serving (metrics scrapes, health probes) meanwhile.
        return await asyncio.to_thread(self.engine.profile, seconds, hz)

    async def dump(self) -> Dict[str, Any]:
        bundle = await asyncio.to_thread(self.engine.dump)
        bundle["role"] = "node"
        bundle["node"] = self.node_name
        return bundle

    async def artifact_list(self) -> Dict[str, Any]:
        entries = await asyncio.to_thread(self.engine.artifact_entries)
        return {"node": self.node_name, "artifacts": entries}

    async def artifact_get(self, tier: str, key: str
                           ) -> Tuple[bytes, Optional[str]]:
        data = await asyncio.to_thread(
            self.engine.artifact_bytes, tier, key)
        if data is None:
            raise ApiError(404, f"no {tier} artifact {key[:12]}… here",
                           code=ERR_NOT_FOUND)
        return data, None

    async def artifact_put(self, tier: str, key: str, data: bytes,
                           reason: str) -> Dict[str, Any]:
        stored = await asyncio.to_thread(
            self.engine.ingest_artifact, tier, key, data, reason)
        return {"stored": stored, "tier": tier, "key": key}


def create_server(engine: Engine, host: str = "127.0.0.1", port: int = 0,
                  *, verbose: bool = False,
                  node_name: Optional[str] = None,
                  access_log_sample: float = 1.0,
                  max_inflight: int = DEFAULT_MAX_INFLIGHT,
                  max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
                  ) -> AsyncHTTPHost:
    """Bind a service HTTP server (``port=0`` picks a free port).

    ``node_name`` is the identity reported in the ``X-Repro-Node`` header
    and ``/v1/healthz`` (default: the bound ``host:port``) — what a
    cluster router shows clients as the serving node.

    ``access_log_sample`` and ``verbose`` configure the host's access
    log (:class:`~repro.api.http.AsyncHTTPHost`).

    ``max_inflight`` bounds concurrent in-handler requests,
    ``max_queue_depth`` bounds unfinished engine jobs; beyond either the
    server sheds with a retryable 429 envelope and ``Retry-After``.

    The caller owns the lifecycle: run ``serve_forever()`` (typically on a
    thread), later ``shutdown()`` + ``server_close()``, and close the engine.
    """
    # Resolve the traversal engine (building the compiled kernels on a
    # cold cache) before serving, so no request waits on a compiler.
    get_default_engine()
    api = EngineAPI(engine, max_queue_depth=max_queue_depth)
    server = AsyncHTTPHost(api, host, port, registry=engine.registry,
                           node_name=node_name, verbose=verbose,
                           access_log_sample=access_log_sample,
                           max_inflight=max_inflight)
    if not node_name:  # the bound address, known once bound
        bound_host, bound_port = server.server_address[:2]
        server.node_name = f"{bound_host}:{bound_port}"
    api.node_name = server.node_name
    engine.node_name = server.node_name  # names this engine's trace spans
    engine.registry.gauge(
        "repro_admission_queue_depth",
        "Unfinished jobs counted against the admission bound.",
        fn=lambda: float(engine.queue_depth()))
    return server


def run_server(server: AsyncHTTPHost, engine: Engine) -> None:
    """Run a bound server until interrupted, then drain the engine."""
    bound_host, bound_port = server.server_address[:2]
    print(f"repro.service listening on http://{bound_host}:{bound_port} "
          f"[node {server.node_name}, "
          f"{engine.scheduler.max_workers} workers] "
          f"(POST /v1/jobs, GET /v1/jobs/<id>, /v1/stats, /v1/healthz)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        engine.close()


def serve(engine: Engine, host: str = "127.0.0.1", port: int = 8321,
          *, verbose: bool = False,
          node_name: Optional[str] = None,
          access_log_sample: float = 1.0,
          max_inflight: int = DEFAULT_MAX_INFLIGHT,
          max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH) -> None:
    """Bind and run the API until interrupted, then drain the engine."""
    try:
        server = create_server(engine, host, port, verbose=verbose,
                               node_name=node_name,
                               access_log_sample=access_log_sample,
                               max_inflight=max_inflight,
                               max_queue_depth=max_queue_depth)
    except OSError:
        engine.close()  # bind failed; don't leak the worker threads
        raise
    run_server(server, engine)
