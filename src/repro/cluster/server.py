"""JSON-over-HTTP front end for the cluster router (stdlib only).

Exposes exactly the node API — ``POST /v1/jobs``, ``GET /v1/jobs/<id>``
(with ``wait_s`` long-poll), ``GET /v1/stats``, ``GET /v1/healthz``,
``POST /v1/admin/flush`` and ``POST /v1/admin/compact`` — so a client
cannot tell a router from a single node: same endpoints, same bodies,
same status-code mapping (400 bad spec, 404 unknown job, 429 fleet-wide
shed, 503 nothing available) and the same error envelope
(:mod:`repro.api.contract`).  The differences are additive: stats and
healthz return fleet-level documents, job responses carry a ``"node"``
field, and the ``X-Repro-Node`` header names the *backing* node that
served the job — which is how warm-cache pinning stays observable
through the router.

Built on the shared asyncio host (:class:`repro.api.http.AsyncHTTPHost`).
Upstream node calls are blocking ``urllib`` long-polls (up to a minute
each), so the backend runs them on its own wide thread pool rather than
``asyncio.to_thread``'s default executor — a router relaying hundreds of
long-polls must not serialize them behind a dozen shared threads.  There
is no compute in this process at all.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import asyncio

from repro.api.contract import (
    ERR_NOT_FOUND,
    ERR_OVERLOADED,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_TRACE,
    ERR_UPSTREAM,
    ApiError,
    WireAPI,
)
from repro.api.http import AsyncHTTPHost, DEFAULT_MAX_INFLIGHT
from repro.cluster.router import ClusterRouter
from repro.errors import InvalidInputError, NodeHTTPError, NodeOverloadedError

T = TypeVar("T")

#: Upstream-relay threads: each in-flight long-poll occupies one for its
#: full duration, so this bounds the router's concurrent node waits.
RELAY_POOL_SIZE = 64


class RouterAPI(WireAPI):
    """The ``/v1`` contract bound to one :class:`ClusterRouter`."""

    def __init__(self, router: ClusterRouter) -> None:
        self.router = router
        self._pool = ThreadPoolExecutor(
            max_workers=RELAY_POOL_SIZE, thread_name_prefix="repro-relay")

    def close(self) -> None:
        """Called by the host on ``server_close()``."""
        self._pool.shutdown(wait=False)

    async def _call(self, fn: Callable[..., T], *args: Any) -> T:
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, lambda: fn(*args))

    async def healthz(self) -> Dict[str, Any]:
        return await self._call(self.router.healthz)

    async def stats(self) -> Dict[str, Any]:
        return await self._call(self.router.stats)

    async def metrics_json(self) -> Dict[str, Any]:
        return await self._call(self.router.metrics_json)

    async def metrics_text(self) -> str:
        return await self._call(self.router.metrics_prometheus)

    async def submit(self, data: Dict[str, Any],
                     trace_header: Optional[str]
                     ) -> Tuple[Dict[str, Any], Optional[str]]:
        try:
            accepted = await self._call(self.router.submit, data)
        except NodeOverloadedError as exc:
            raise self._overloaded(exc)
        return accepted, accepted.get("node")

    async def job(self, job_id: str, wait: float
                  ) -> Tuple[Dict[str, Any], Optional[str]]:
        try:
            body, node = await self._call(
                lambda: self.router.job(job_id, wait_s=wait))
        except InvalidInputError as exc:
            raise ApiError(404, str(exc), code=ERR_UNKNOWN_JOB)
        except NodeOverloadedError as exc:
            raise self._overloaded(exc)
        except NodeHTTPError as exc:
            raise self._upstream(exc)
        return body, node

    async def flush(self, data: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return await self._call(self.router.flush, data.get("tier"))
        except NodeHTTPError as exc:
            raise self._upstream(exc)

    async def compact(self) -> Dict[str, Any]:
        try:
            return await self._call(self.router.compact)
        except NodeHTTPError as exc:
            raise self._upstream(exc)

    async def traces(self, query: Dict[str, Any]) -> Dict[str, Any]:
        return await self._call(self.router.traces, query)

    async def trace(self, trace_id: str
                    ) -> Tuple[Dict[str, Any], Optional[str]]:
        try:
            found = await self._call(self.router.trace, trace_id)
        except NodeHTTPError as exc:
            raise self._upstream(exc)
        if found is None:
            raise ApiError(404, f"unknown trace id {trace_id!r} "
                                f"(no node has it archived)",
                           code=ERR_UNKNOWN_TRACE)
        record, node = found
        return record, node

    async def profile(self, seconds: Optional[float],
                      hz: Optional[float]) -> Dict[str, Any]:
        # The fleet capture occupies one relay thread per node for the
        # whole window; the router fans out concurrently underneath.
        return await self._call(
            lambda: self.router.profile(seconds, hz))

    async def dump(self) -> Dict[str, Any]:
        # The router's own event ring rides along; node rings are one hop
        # away via each node's /v1/admin/events.
        return await self._call(self.router.dump)

    async def artifact_list(self) -> Dict[str, Any]:
        return await self._call(self.router.artifacts)

    async def artifact_get(self, tier: str, key: str
                           ) -> Tuple[bytes, Optional[str]]:
        found = await self._call(
            lambda: self.router.artifact(tier, key))
        if found is None:
            raise ApiError(404, f"no node holds {tier} artifact "
                                f"{key[:12]}…", code=ERR_NOT_FOUND)
        return found

    async def artifact_put(self, tier: str, key: str, data: bytes,
                           reason: str) -> Dict[str, Any]:
        # Pushes target one node's store; a blind router-placed write
        # would race the placement the pusher already computed.
        raise ApiError(400, "push artifacts to a node directly; "
                            "the router only serves artifact reads")

    @staticmethod
    def _overloaded(exc: NodeOverloadedError) -> ApiError:
        """Relay a fleet-wide shed as the same retryable 429 a node sends."""
        return ApiError(429, str(exc), code=ERR_OVERLOADED, retryable=True,
                        retry_after=exc.retry_after or 1)

    @staticmethod
    def _upstream(exc: NodeHTTPError) -> ApiError:
        """Relay a node's HTTP error, preserving its status and code."""
        return ApiError(exc.code, str(exc),
                        code=exc.error_code or ERR_UPSTREAM,
                        retryable=exc.retryable)


def create_router_server(router: ClusterRouter, host: str = "127.0.0.1",
                         port: int = 0, *, verbose: bool = False,
                         access_log_sample: float = 1.0,
                         max_inflight: int = DEFAULT_MAX_INFLIGHT
                         ) -> AsyncHTTPHost:
    """Bind a router HTTP server (``port=0`` picks a free port).

    The caller owns the lifecycle, exactly like the node server:
    ``serve_forever()`` on a thread, later ``shutdown()`` +
    ``server_close()``, then ``router.close()``.
    """
    return AsyncHTTPHost(RouterAPI(router), host, port,
                         registry=router.registry, verbose=verbose,
                         access_log_sample=access_log_sample,
                         max_inflight=max_inflight)


def run_router_server(server: AsyncHTTPHost,
                      router: ClusterRouter) -> None:
    """Run a bound router server until interrupted."""
    bound_host, bound_port = server.server_address[:2]
    names = ", ".join(node.name for node in router.ring.nodes)
    print(f"repro.cluster router listening on "
          f"http://{bound_host}:{bound_port} over {len(router.ring)} "
          f"node(s): {names}\n"
          f"(POST /v1/jobs, GET /v1/jobs/<id>, /v1/stats, /v1/healthz)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        router.close()
