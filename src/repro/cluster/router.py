"""The cluster router: one submit/result façade over N service nodes.

:class:`ClusterRouter` makes a fleet of ``repro.service`` nodes look like
one engine.  Per job it:

1. **validates and fingerprints locally** — the spec is parsed with the
   same :class:`~repro.service.jobs.JobSpec` validation the nodes use (a
   bad spec is rejected at the router, costing no node a request) and its
   point content is hashed with :func:`repro.store.fingerprint_spec`, the
   exact digest the nodes key their cache tiers by;
2. **routes by placement** — weighted rendezvous hashing
   (:class:`~repro.cluster.topology.HashRing`) maps the
   points-fingerprint to a node, so repeat submissions of the same point
   set land where the BVH / core-distance / result tiers are already warm
   (content-addressed keys make artifacts location-independent; placement
   adds location *affinity* on top);
3. **fails over at most once** — on a connection error, a timeout or a
   5xx the target is marked down and the job goes to the next node in
   preference order (descending rendezvous score);
4. **recovers results across node death** — the router remembers each
   routed job's spec (bounded, like the engine's retention); if the
   owning node dies before the result is read, the next poll transparently
   *resubmits* to a surviving node.  Jobs are pure functions of their
   spec, so re-execution is safe and byte-identical;
5. **replicates artifacts across homes** (``replicas=k`` > 1) — when a
   job finishes, a background worker copies its result/tree/core blobs
   from the serving node to the key's other home nodes via the artifact
   endpoints, so a node death costs *zero recomputation*: the failover
   home answers from its own warm disk tier.  Write-through is
   best-effort cache warming (bounded queue, drops under pressure),
   never a durability promise — recompute-from-spec remains the floor.

Every call to a node goes through :meth:`ClusterRouter._call`, which
holds the one node-health policy: any HTTP answer (2xx, 4xx or a 429
shed) marks the node up, and only a connection error, a timeout or a 5xx
marks it down.

Dataset-spec fingerprints are memoized (the specs are deterministic), so
routing a repeat dataset job costs a dict lookup, not a regeneration —
the same trick the engine itself uses.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

import repro
from repro.api.contract import DEFAULT_TRACE_LIMIT, ERR_UNKNOWN_TRACE
from repro.client import DEFAULT_RETRIES, DEFAULT_TIMEOUT, Client
from repro.cluster.topology import HashRing, Node
from repro.errors import (
    ClusterError,
    InvalidInputError,
    NodeHTTPError,
    NodeOverloadedError,
    NodeUnavailableError,
)
from repro.store import combine_fingerprint
from repro.metrics import fleet_hit_rate, fleet_mfeatures_per_second
from repro.obs import (
    MetricsRegistry,
    make_span,
    make_trace,
    merge_profiles,
    obs_enabled,
    render_prometheus,
)
from repro.service.jobs import JobSpec
from repro.store import fingerprint_spec

#: Routed jobs kept resolvable (and re-submittable) at once; mirrors the
#: engine's own finished-job retention cap.
DEFAULT_MAX_ROUTES = 4096
#: Seconds a node stays skipped after a failure before the router risks a
#: request on it again (half-open probe).
DEFAULT_RETRY_DOWN_AFTER = 5.0
#: Timeout for fleet-wide healthz/stats probes.  Deliberately much shorter
#: than the job timeout: these answer from memory on a healthy node, and a
#: hung node must not stall a whole fleet-status call for the full job
#: timeout times the node count (probes run sequentially).
DEFAULT_PROBE_TIMEOUT = 5.0
#: Memoized dataset-spec fingerprints (tiny entries, safety cap).
_MAX_DATASET_MEMO = 4096
#: Replica write-through queue depth.  Replication is an optimization
#: (a dropped copy costs one recompute after a death, never correctness),
#: so a slow fleet sheds copy work instead of backing up submissions.
REPLICA_QUEUE_DEPTH = 256

T = TypeVar("T")


def _answered(error: Optional[ClusterError]) -> bool:
    """Whether a node call got an HTTP answer: a 2xx, a 4xx refusal or a
    429 shed.  Only a connection error, a timeout or a 5xx is none."""
    return not isinstance(error, NodeUnavailableError) \
        or isinstance(error, NodeOverloadedError)


@dataclass
class _Route:
    """Router-side record of one dispatched job.

    Coalesced submissions share one ``_Route`` instance under several
    routed ids, so a recovery (node death, retention eviction) moves
    every rider at once and the upstream executes exactly once.
    """

    spec: JobSpec
    points_fp: str
    node_name: str
    upstream_id: str
    #: ``(points_fp, params_key)`` while the job may still be in flight;
    #: the first terminal poll clears the in-flight index entry.
    coalesce_key: Optional[Tuple[str, str]] = None
    resubmits: int = 0
    #: Set once the route's artifacts have been queued for replica
    #: write-through — every coalesced rider observes the same terminal
    #: poll, but the fleet only needs one copy pass.
    replicated: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Router-side trace context: hop spans accumulated across dispatch,
    #: failover and recovery, shipped to the serving node in the
    #: ``X-Repro-Trace`` header (``None`` when tracing is off).
    trace: Optional[Dict[str, Any]] = None


class ClusterRouter:
    """Routes the ``/v1`` job API across a fleet of service nodes."""

    def __init__(self, nodes: List[Node], *,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 max_routes: int = DEFAULT_MAX_ROUTES,
                 retry_down_after: float = DEFAULT_RETRY_DOWN_AFTER,
                 probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
                 replicas: int = 1,
                 obs: Optional[bool] = None) -> None:
        if not nodes:
            raise InvalidInputError("a cluster needs at least one node")
        if max_routes < 1:
            raise InvalidInputError(
                f"max_routes must be >= 1, got {max_routes}")
        if replicas < 1:
            raise InvalidInputError(
                f"replicas must be >= 1, got {replicas}")
        self.probe_timeout = min(probe_timeout, timeout)
        self.replicas = replicas
        self.ring = HashRing(nodes)
        self.clients: Dict[str, Client] = {
            node.name: Client(node.base_url, timeout=timeout,
                              retries=retries)
            for node in nodes}
        self.max_routes = max_routes
        self.retry_down_after = retry_down_after
        self._routes: "OrderedDict[str, _Route]" = OrderedDict()
        #: In-flight upstream jobs by ``(points_fp, params_key)``:
        #: identical concurrent submissions ride the same upstream job
        #: instead of recomputing (request coalescing).
        self._inflight: Dict[Tuple[str, str], _Route] = {}
        self._dataset_fp: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started_at = time.perf_counter()
        #: Nodes with a cool-off re-probe currently in flight; concurrent
        #: routing calls skip such a node rather than pile probes on it.
        self._probing: Set[str] = set()
        self._probe_guard = threading.Lock()
        # Replica write-through: terminal routes queue here; one daemon
        # worker copies their artifacts to the key's other home nodes.
        self._replica_q: "queue.Queue[Optional[_Route]]" = queue.Queue(
            maxsize=REPLICA_QUEUE_DEPTH)
        self._replica_worker: Optional[threading.Thread] = None
        self._replica_active = 0
        self._closed = False
        # Router-level accounting lives in a metrics registry (like the
        # engine's), read back by `stats()` and scraped by /v1/metrics.
        self.registry = MetricsRegistry(
            enabled=obs_enabled() if obs is None else bool(obs))
        self._submitted_c = self.registry.counter(
            "repro_router_jobs_routed_total",
            "Jobs accepted and routed (including coalesced riders).")
        self._failovers_c = self.registry.counter(
            "repro_router_failovers_total",
            "Dispatches that failed over past an unavailable primary.")
        self._resubmits_c = self.registry.counter(
            "repro_router_resubmits_total",
            "Jobs transparently re-executed after their node lost them.")
        self._coalesced_c = self.registry.counter(
            "repro_router_coalesced_total",
            "Submissions that rode an identical in-flight upstream job.")
        routed_by_node = self.registry.counter(
            "repro_router_routed_by_node_total",
            "Dispatches per serving node.", labels=("node",))
        #: Pre-touched per-node handles: every node shows a zero sample
        #: on scrape, and `stats()` reports the full node list.
        self._routed_by_node_c = {
            node.name: routed_by_node.labels(node=node.name)
            for node in nodes}
        self._upstream_h = self.registry.histogram(
            "repro_router_upstream_seconds",
            "Latency of upstream job submissions, per node.",
            labels=("node",))
        self._replica_writes_c = self.registry.counter(
            "repro_replica_writes_total",
            "Replica write-through attempts, by outcome "
            "(ok/rejected/miss/error/dropped).", labels=("outcome",))
        self._reprobes_c = self.registry.counter(
            "repro_router_reprobes_total",
            "Cool-off health re-probes of down nodes, by outcome.",
            labels=("outcome",))
        self.registry.gauge(
            "repro_router_replica_pending",
            "Replica write-through passes queued or in progress.",
            fn=lambda: float(self.replica_pending()))
        self.registry.gauge(
            "repro_router_uptime_seconds",
            "Seconds since the router started.",
            fn=lambda: time.perf_counter() - self._started_at)
        self.registry.gauge(
            "repro_router_known_routes",
            "Routed jobs currently resolvable at the router.",
            fn=lambda: len(self._routes))

    # ------------------------------------------------------------ placement

    def fingerprint(self, spec: JobSpec) -> str:
        """The routing key of ``spec`` — its points-content fingerprint."""
        memo_key = None
        if spec.dataset is not None:
            memo_key = spec.dataset.removeprefix("dataset:")
            cached = self._dataset_fp.get(memo_key)
            if cached is not None:
                return cached
        points_fp = fingerprint_spec(spec)
        if memo_key is not None:
            with self._lock:
                if len(self._dataset_fp) >= _MAX_DATASET_MEMO:
                    self._dataset_fp.clear()
                self._dataset_fp[memo_key] = points_fp
        return points_fp

    def _candidates(self, points_fp: str,
                    exclude: Tuple[str, ...] = ()) -> List[Node]:
        """Failover-ordered nodes for a key, shunning recently-down ones.

        A down node is skipped until ``retry_down_after`` seconds have
        passed since its last failure, then *re-probed* (cheap healthz,
        ``probe_timeout``) on its first hit in preference order: success
        flips it healthy fleet-wide — so replica placement and other
        routing calls see the recovery immediately, not merely the one
        dispatch that happened to land on it — while failure restarts the
        cool-off.  If the filter empties the list, every node (minus
        ``exclude``) is returned anyway — a fleet that looks entirely
        down must still try *something* rather than fail without a
        connection attempt.
        """
        preferred = [node for node in self.ring.preference(points_fp)
                     if node.name not in exclude]
        now = time.monotonic()
        live = []
        for node in preferred:
            if node.healthy:
                live.append(node)
            elif now - node.last_failure_at >= self.retry_down_after \
                    and self._reprobe(node):
                live.append(node)
        return live or preferred

    def _reprobe(self, node: Node) -> bool:
        """Health-probe one cooled-off down node; ``True`` if it rejoined.

        Guarded by :attr:`_probing`: while one caller's probe is in
        flight, concurrent callers skip the node instead of stacking
        probes (and blocking) on a possibly-still-dead host.
        """
        with self._probe_guard:
            if node.name in self._probing:
                return False
            self._probing.add(node.name)
        try:
            # A failed probe marks the node down again, which restarts
            # its cool-off clock.
            _, error = self._call(
                node, lambda c: c.healthz(timeout=self.probe_timeout))
        finally:
            with self._probe_guard:
                self._probing.discard(node.name)
        up = _answered(error)
        self._reprobes_c.inc(outcome="up" if up else "down")
        return up

    def _call(self, node: Node, call: Callable[[Client], T]
              ) -> Tuple[Optional[T], Optional[ClusterError]]:
        """Make one call to ``node`` and apply the node-health policy.

        Any HTTP answer — a 2xx, a 4xx refusal or a 429 shed — is proof
        of life and marks the node up; only a connection error, a
        timeout or a 5xx marks it down.  Returns ``(value, None)`` on a
        2xx and ``(None, error)`` otherwise, so each caller only decides
        what the error means for its own document.
        """
        try:
            value, error = call(self.clients[node.name]), None
        except (NodeUnavailableError, NodeHTTPError) as exc:
            value, error = None, exc
        if _answered(error):
            node.mark_up()
        else:
            node.mark_down(str(error))
        return value, error

    # --------------------------------------------------------------- submit

    def submit(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Validate, route and dispatch one job-spec body.

        Returns the node's 202 body with the router's own job id and the
        serving node's name under ``"node"``.  Raises
        :class:`InvalidInputError` for a bad spec (the caller's 400) and
        :class:`NodeUnavailableError` when the primary *and* the failover
        node both fail (the caller's 503).
        """
        spec = JobSpec.from_dict(body)
        points_fp = self.fingerprint(spec)
        key = (points_fp, spec.params_key())
        with self._lock:
            shared = self._inflight.get(key)
        if shared is not None:
            # Identical spec already in flight: ride its upstream job.
            routed_id = f"job-{next(self._ids):06d}"
            with self._lock:
                self._routes[routed_id] = shared
                while len(self._routes) > self.max_routes:
                    self._routes.popitem(last=False)
            self._submitted_c.inc()
            self._coalesced_c.inc()
            return {"job_id": routed_id, "status": "pending",
                    "node": shared.node_name}
        trace = make_trace() if self.registry.enabled else None
        accepted, node = self._dispatch(spec, points_fp, trace=trace)
        routed_id = f"job-{next(self._ids):06d}"
        route = _Route(spec=spec, points_fp=points_fp,
                       node_name=node.name,
                       upstream_id=accepted["job_id"],
                       coalesce_key=key, trace=trace)
        with self._lock:
            self._routes[routed_id] = route
            if len(self._inflight) >= self.max_routes:  # safety bound
                self._inflight.clear()
            # Insert-if-absent: two submissions racing past the lookup
            # above both dispatched (best-effort coalescing), but the
            # index must keep exactly one of them — overwriting would
            # orphan the first route's terminal-poll cleanup.
            if key in self._inflight:
                route.coalesce_key = None
            else:
                self._inflight[key] = route
            while len(self._routes) > self.max_routes:
                self._routes.popitem(last=False)
        self._submitted_c.inc()
        self._routed_by_node_c[node.name].inc()
        return {**accepted, "job_id": routed_id, "node": node.name}

    def _dispatch(self, spec: JobSpec, points_fp: str,
                  exclude: Tuple[str, ...] = (),
                  trace: Optional[Dict[str, Any]] = None
                  ) -> Tuple[Dict[str, Any], Node]:
        """Send a spec to the first candidate that takes it.

        Bounded retry: the primary plus ``max(2, replicas) - 1``
        failovers — exactly the key's home set when replication is on,
        one failover otherwise (a job that breaks *every* node it touches
        should fail loudly, not walk the whole fleet).

        With ``trace`` set, each attempt appends a ``route`` hop span and
        the whole context travels in the ``X-Repro-Trace`` header — the
        span goes in *before* the send so the accepting node's copy
        includes its own hop; an attempt that fails never delivered the
        header, so its span is amended locally (``outcome:
        "unavailable"``) and rides along to the next attempt.
        """
        body = spec.to_dict()
        last_error: Optional[Exception] = None
        # With replication, any of the k homes may hold the warm copy —
        # walking that many candidates keeps failover reads hitting disk
        # instead of recomputing (k=1 keeps the historical primary+1).
        width = max(2, self.replicas)
        for attempt, node in enumerate(
                self._candidates(points_fp, exclude)[:width]):
            hop: Optional[Dict[str, Any]] = None
            if trace is not None:
                hop = make_span("route", node=node.name, attempt=attempt,
                                outcome="accepted")
                trace["spans"].append(hop)
            started = time.perf_counter()
            accepted, error = self._call(
                node, lambda c: c.submit(body, trace=trace))
            elapsed = time.perf_counter() - started
            self._upstream_h.observe(elapsed, node=node.name)
            if hop is not None:
                hop["duration_s"] = elapsed
            if error is None:
                return accepted, node
            if isinstance(error, NodeHTTPError):
                raise error
            # A shed (429) is failover-eligible too, though the node is
            # alive: record the hop and try the next candidate.
            if hop is not None:
                hop["meta"]["outcome"] = "overloaded" \
                    if isinstance(error, NodeOverloadedError) \
                    else "unavailable"
                hop["meta"]["error"] = str(error)[:200]
            if last_error is None:
                self._failovers_c.inc()
            last_error = error
        if isinstance(last_error, NodeOverloadedError):
            # Every candidate shed: surface the retryable 429 (with its
            # Retry-After hint) so the client backs off and retries the
            # fleet, rather than a 503 that reads as an outage.
            raise NodeOverloadedError(
                f"no node accepted the job (primary and failover "
                f"overloaded): {last_error}",
                retry_after=last_error.retry_after) from last_error
        raise NodeUnavailableError(
            f"no node accepted the job (tried primary and failover): "
            f"{last_error}") from last_error

    # --------------------------------------------------------------- results

    def _route(self, routed_id: str) -> _Route:
        with self._lock:
            route = self._routes.get(routed_id)
        if route is None:
            raise InvalidInputError(f"unknown job id {routed_id!r}")
        return route

    def job(self, routed_id: str,
            wait_s: float = 0.0) -> Tuple[Dict[str, Any], str]:
        """Proxy one job lookup; returns ``(body, serving node name)``.

        If the owning node died, the spec is resubmitted to the next node
        in preference order (transparent recovery) and the lookup
        continues there within the same call.
        """
        route = self._route(routed_id)
        observed_node = route.node_name
        body, error = self._call(self.ring.get(observed_node),
                                 lambda c: c.poll(route.upstream_id, wait_s))
        if isinstance(error, NodeOverloadedError):
            # The node is alive and still owns the job — shedding a poll
            # is not job loss, so no recovery resubmission; the client
            # backs off and polls again.
            raise error
        if isinstance(error, NodeHTTPError) and error.code != 404:
            raise error
        if error is not None:
            # The node died, or forgot the job (404: restart, retention
            # eviction): either way the spec re-executes elsewhere.
            body = self._recover(route, observed_node, wait_s)
        status = body.get("status")
        if status in ("done", "failed") \
                and route.coalesce_key is not None:
            # Terminal: later identical submissions should hit the nodes'
            # result caches, not this finished upstream job.
            with self._lock:
                if self._inflight.get(route.coalesce_key) is route:
                    del self._inflight[route.coalesce_key]
            route.coalesce_key = None
        if status == "done" and self.replicas > 1:
            self._queue_replication(route)
        return {**body, "job_id": routed_id, "node": route.node_name}, \
            route.node_name

    def _recover(self, route: _Route, failed_node: str,
                 wait_s: float) -> Dict[str, Any]:
        """Resubmit a lost job elsewhere and look it up once more.

        ``failed_node`` is the assignment the caller *observed* failing.
        One recovery runs at a time per route; a concurrent poller that
        blocked on the lock re-reads the assignment and, finding it
        already moved off the node it saw fail, polls the recovered
        placement instead of re-dispatching (which would double-execute
        the job — or, on a two-node fleet, exclude the only healthy
        node).
        """
        with route.lock:
            if route.node_name == failed_node:
                if route.trace is not None:
                    # The failed hop stays in the context; the recovery
                    # dispatch appends its own hop after this marker, so
                    # the re-executed job's trace shows the whole story.
                    route.trace["spans"].append(make_span(
                        "lost", node=failed_node, outcome="lost",
                        resubmits=route.resubmits + 1))
                accepted, node = self._dispatch(
                    route.spec, route.points_fp, exclude=(failed_node,),
                    trace=route.trace)
                route.node_name = node.name
                route.upstream_id = accepted["job_id"]
                route.resubmits += 1
                self._resubmits_c.inc()
                self._routed_by_node_c[node.name].inc()
            current_node, current_id = route.node_name, route.upstream_id
        body, error = self._call(self.ring.get(current_node),
                                 lambda c: c.poll(current_id, wait_s))
        if error is not None:
            raise error
        return body

    # ------------------------------------------------------- replication

    def _queue_replication(self, route: _Route) -> None:
        """Queue one terminal route's artifacts for replica write-through.

        At most once per route (coalesced riders all observe the same
        terminal poll); a full queue *drops* the pass and counts it —
        replication is cache warming, not durability, so it must never
        backpressure the serving path.
        """
        with route.lock:
            if route.replicated:
                return
            route.replicated = True
        self._ensure_replica_worker()
        try:
            self._replica_q.put_nowait(route)
        except queue.Full:
            self._replica_writes_c.inc(outcome="dropped")

    def _ensure_replica_worker(self) -> None:
        with self._lock:
            if self._closed or (self._replica_worker is not None
                                and self._replica_worker.is_alive()):
                return
            self._replica_worker = threading.Thread(
                target=self._replica_loop, name="repro-replicator",
                daemon=True)
            self._replica_worker.start()

    def _replica_loop(self) -> None:
        while True:
            route = self._replica_q.get()
            if route is None:  # close() sentinel
                return
            with self._lock:
                self._replica_active += 1
            try:
                self._replicate(route)
            except Exception:  # noqa: BLE001 — worker must survive
                self._replica_writes_c.inc(outcome="error")
            finally:
                with self._lock:
                    self._replica_active -= 1

    def replica_pending(self) -> int:
        """Write-through passes not yet finished (queued + in flight)."""
        with self._lock:
            return self._replica_q.qsize() + self._replica_active

    def _replica_keys(self, route: _Route) -> List[Tuple[str, str]]:
        """The ``(tier, key)`` artifacts one finished job produced.

        Derived the same way the engine keys its tiers: content
        fingerprint combined with the spec's per-tier parameter strings
        (core distances exist only for the mutual-reachability
        algorithms).
        """
        spec, points_fp = route.spec, route.points_fp
        keys = [
            ("result", combine_fingerprint(points_fp, spec.params_key())),
            ("tree", combine_fingerprint(points_fp, spec.tree_key())),
        ]
        if spec.algorithm in ("mrd_emst", "hdbscan"):
            keys.append(
                ("core", combine_fingerprint(points_fp, spec.core_key())))
        return keys

    def _replicate(self, route: _Route) -> None:
        """Copy one route's artifacts from its serving node to the other
        home nodes of its key (placement's first ``replicas`` healthy
        preferences).

        Pull-then-push through the router: the wire format *is* the store
        format, so the bytes that leave the source are the bytes the
        target validates and renames into place — byte identity for free.
        Per (tier, target) outcome counting: ``ok`` stored, ``rejected``
        refused (oversized / no disk store), ``miss`` source lacks the
        blob (memory-only node), ``error`` transport trouble.
        """
        source = self.ring.get(route.node_name)
        if source is None:
            self._replica_writes_c.inc(outcome="error")
            return
        targets = [node for node
                   in self.ring.homes(route.points_fp, self.replicas)
                   if node.name != source.name]
        if not targets:
            return
        for tier, key in self._replica_keys(route):
            data, error = self._call(source,
                                     lambda c: c.artifact(tier, key))
            if error is not None:
                # A refusal (404) means the source never spilled this tier
                # to disk: a per-tier miss, not a failure of the pass.
                self._replica_writes_c.inc(
                    outcome="miss" if isinstance(error, NodeHTTPError)
                    else "error")
                continue
            for target in targets:
                receipt, error = self._call(
                    target, lambda c: c.artifact_put(tier, key, data))
                self._replica_writes_c.inc(
                    outcome="error" if error is not None
                    else "ok" if receipt.get("stored") else "rejected")

    # --------------------------------------------------------- artifacts

    def artifacts(self) -> Dict[str, Any]:
        """Every reachable node's artifact inventory, by node."""
        nodes: List[Dict[str, Any]] = []
        for node in self.ring.nodes:
            doc, error = self._call(
                node, lambda c: c.artifacts(timeout=self.probe_timeout))
            nodes.append({"node": node.name, "error": str(error)}
                         if error is not None else
                         {"node": node.name,
                          "artifacts": doc.get("artifacts", [])})
        return {"role": "router", "nodes": nodes}

    def artifact(self, tier: str, key: str
                 ) -> Optional[Tuple[bytes, str]]:
        """Find one artifact anywhere in the fleet.

        Returns ``(bytes, holding node name)`` from the first node that
        has it, or ``None``.  A 404 is the expected miss; unreachable
        nodes are skipped so a partial fleet still serves what it holds.
        """
        for node in self.ring.nodes:
            data, error = self._call(node, lambda c: c.artifact(tier, key))
            if error is None:
                return data, node.name
            if isinstance(error, NodeHTTPError) and error.code != 404:
                raise error
        return None

    # ----------------------------------------------------- fleet aggregates

    def healthz(self) -> Dict[str, Any]:
        """Probe every node; fleet status is ``ok`` only if all answer."""
        nodes = []
        up = 0
        for node in self.ring.nodes:
            health, error = self._call(
                node, lambda c: c.healthz(timeout=self.probe_timeout))
            if error is not None:
                # A shed or a refusal is reachable, yet does not count
                # toward a fleet status of ``ok``.
                nodes.append({**node.as_dict(),
                              "reachable": _answered(error),
                              "error": str(error)})
                continue
            up += 1
            nodes.append({**node.as_dict(), "reachable": True,
                          "persistent": health.get("persistent")})
        status = "ok" if up == len(nodes) else \
            "degraded" if up else "down"
        return {"status": status, "role": "router",
                "version": repro.__version__,
                "nodes_up": up, "nodes_total": len(nodes), "nodes": nodes}

    def stats(self) -> Dict[str, Any]:
        """Fleet-level statistics: pooled hit rates and throughput.

        Per-node engine stats are fetched live; an unreachable node
        contributes an error entry instead of silently vanishing from the
        denominator (its counters are unknowable, not zero).
        """
        per_node: List[Dict[str, Any]] = []
        reachable: List[Dict[str, Any]] = []
        for node in self.ring.nodes:
            stats, error = self._call(
                node, lambda c: c.stats(timeout=self.probe_timeout))
            if error is not None:
                per_node.append({"node": node.name, "error": str(error)})
                continue
            per_node.append({"node": node.name, **stats})
            reachable.append(stats)
        jobs: Dict[str, int] = {}
        for stats in reachable:
            for key, count in stats.get("jobs", {}).items():
                jobs[key] = jobs.get(key, 0) + int(count)
        tiers: Dict[str, Any] = {}
        for tier in ("tree", "result", "core"):
            cache_key = f"{tier}_cache"
            memory = [(s[cache_key]["hits"], s[cache_key]["misses"])
                      for s in reachable if cache_key in s]
            disk = [(s[cache_key]["disk"]["hits"],
                     s[cache_key]["disk"]["misses"])
                    for s in reachable if cache_key in s]
            tiers[cache_key] = {
                "hit_rate": fleet_hit_rate(memory),
                "disk_hit_rate": fleet_hit_rate(disk),
                "entries": sum(s[cache_key]["entries"]
                               for s in reachable if cache_key in s),
            }
        schedulers = [s["scheduler"] for s in reachable if "scheduler" in s]
        router = {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "jobs_routed": int(self._submitted_c.value()),
            "failovers": int(self._failovers_c.value()),
            "resubmits": int(self._resubmits_c.value()),
            "coalesced": int(self._coalesced_c.value()),
            "replicas": self.replicas,
            "replica_pending": self.replica_pending(),
            "known_routes": len(self._routes),
            "routed_by_node": {name: int(handle.value) for name, handle
                               in self._routed_by_node_c.items()},
        }
        return {
            "role": "router",
            "router": router,
            "fleet": {
                "nodes_total": len(per_node),
                "nodes_reachable": len(reachable),
                "jobs": jobs,
                **tiers,
                "mfeatures_per_sec": fleet_mfeatures_per_second(
                    [s.get("features_done", 0) for s in schedulers],
                    [s.get("busy_seconds", 0.0) for s in schedulers]),
                "jobs_per_sec": sum(s.get("jobs_per_sec", 0.0)
                                    for s in schedulers),
                "key_share": self.ring.key_share(),
            },
            "nodes": per_node,
        }

    def _scrape_nodes(self) -> Dict[str, Dict[str, Any]]:
        """Each reachable node's JSON metrics document, by node name."""
        docs: Dict[str, Dict[str, Any]] = {}
        for node in self.ring.nodes:
            doc, error = self._call(
                node, lambda c: c.metrics_json(timeout=self.probe_timeout))
            docs[node.name] = doc if error is None else {"error": str(error)}
        return docs

    def metrics_json(self) -> Dict[str, Any]:
        """Router + per-node metrics documents (``?format=json`` form)."""
        return {"role": "router", "router": self.registry.as_dict(),
                "nodes": self._scrape_nodes()}

    def metrics_prometheus(self) -> str:
        """One fleet-wide Prometheus text page.

        The router's own families come first (unlabeled); every reachable
        node's families are merged in under a ``node=<name>`` label, so
        one scrape of the router sees the whole fleet — and pooled
        quantiles can be computed by merging the per-node histogram
        buckets (never by averaging per-node quantiles).
        """
        documents = [({}, self.registry.as_dict())]
        for name, doc in self._scrape_nodes().items():
            if "error" not in doc:
                documents.append(({"node": name}, doc))
        return render_prometheus(documents)

    # ------------------------------------------------------------ obs query

    def traces(self, query: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        """Fan an archived-trace query across the fleet and merge.

        ``query`` uses the validated internal form (``since``,
        ``min_duration_s``, ``outcome``, ``algorithm``, ``limit``).  Each
        node answers with its own retained records; the merge tags every
        record with its serving node, sorts slowest-first across the
        whole fleet and re-applies ``limit`` — so one router request
        answers "show me the slowest traces cluster-wide".  Unreachable
        nodes are reported per-node instead of failing the query.
        """
        query = dict(query or {})
        limit = int(query.pop("limit", DEFAULT_TRACE_LIMIT))
        params: Dict[str, Any] = {"limit": limit}
        if "since" in query:
            params["since"] = query["since"]
        if "min_duration_s" in query:
            params["min_duration_ms"] = query["min_duration_s"] * 1000.0
        for name in ("outcome", "algorithm"):
            if name in query:
                params[name] = query[name]
        merged: List[Dict[str, Any]] = []
        per_node: Dict[str, Any] = {}
        for node in self.ring.nodes:
            doc, error = self._call(node, lambda c: c.traces(**params))
            if error is not None:
                per_node[node.name] = {"error": str(error)}
                continue
            records = doc.get("traces", [])
            for record in records:
                merged.append({**record,
                               "node": record.get("node") or node.name})
            per_node[node.name] = {"returned": len(records),
                                   "stats": doc.get("stats")}
        merged.sort(key=lambda r: (-r.get("duration_s", 0.0),
                                   -r.get("ts", 0.0)))
        return {"traces": merged[:limit], "nodes": per_node}

    def trace(self, trace_id: str
              ) -> Optional[Tuple[Dict[str, Any], str]]:
        """Find one archived trace anywhere in the fleet.

        Returns ``(record, serving node name)`` from the first node that
        has it, or ``None`` — a node not knowing the id (404) is the
        expected miss, not an error; unreachable nodes are skipped the
        same way so a partial fleet still answers for the traces it has.
        """
        for node in self.ring.nodes:
            record, error = self._call(
                node, lambda c: c.archived_trace(trace_id))
            if error is None:
                return record, node.name
            if isinstance(error, NodeHTTPError) and error.code != 404 \
                    and error.error_code != ERR_UNKNOWN_TRACE:
                raise error
        return None

    def profile(self, seconds: Optional[float] = None,
                hz: Optional[float] = None) -> Dict[str, Any]:
        """Fan a profile capture across the fleet and merge.

        Every node captures **concurrently** (a sequential fan-out would
        multiply the capture window by the node count), each stack row
        in the merged document is tagged with its serving node, and
        unreachable nodes are reported per-node instead of failing the
        capture — one router request answers "where is the fleet
        spending its cycles right now".
        """
        docs: Dict[str, Dict[str, Any]] = {}
        per_node: Dict[str, Any] = {}

        def _capture(node: Node) -> None:
            doc, error = self._call(
                node, lambda c: c.profile(seconds=seconds, hz=hz))
            if error is None:
                docs[node.name] = doc
            else:
                per_node[node.name] = {"error": str(error)}

        threads = [threading.Thread(target=_capture, args=(node,),
                                    name=f"repro-profile-{node.name}")
                   for node in self.ring.nodes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = merge_profiles(docs)
        for name, doc in docs.items():
            per_node[name] = {"samples": int(doc.get("samples", 0)),
                              "enabled": bool(doc.get("enabled"))}
        merged["role"] = "router"
        merged["nodes"] = per_node
        return merged

    def dump(self) -> Dict[str, Any]:
        """The router's flight-recorder bundle.

        Router-side state only (routing counters, registry, fleet
        health, key shares) — node dumps are fetched from the nodes
        directly; bundling every node's full dump here would make the
        postmortem endpoint itself an outage amplifier.
        """
        with self._lock:
            known_routes = len(self._routes)
            inflight = len(self._inflight)
        return {
            "ts": time.time(),
            "role": "router",
            "known_routes": known_routes,
            "inflight_coalesce_keys": inflight,
            "metrics": self.registry.as_dict(),
            "healthz": self.healthz(),
            "key_share": self.ring.key_share(),
        }

    # ----------------------------------------------------------------- admin

    def flush(self, tier: Optional[str] = None) -> Dict[str, Any]:
        """Fan a flush out to every node; collects per-node reports."""
        return self._fan_out("flush", lambda c: c.flush(tier))

    def compact(self) -> Dict[str, Any]:
        """Fan a store compaction out to every node."""
        return self._fan_out("compact", lambda c: c.compact())

    def _fan_out(self, op: str,
                 call: Callable[[Client], Dict[str, Any]]
                 ) -> Dict[str, Any]:
        nodes = []
        errors: List[ClusterError] = []
        for node in self.ring.nodes:
            report, error = self._call(node, call)
            if error is None:
                nodes.append({"node": node.name, **report})
            else:
                nodes.append({"node": node.name, "error": str(error)})
                errors.append(error)
        if len(errors) == len(nodes):
            # A 4xx means the node rejected the *request*; when every
            # node failed, the caller deserves that status, not a 503.
            for error in errors:
                if isinstance(error, NodeHTTPError):
                    raise error
            raise ClusterError(f"{op} failed on every node")
        return {"status": "ok" if not errors else "partial",
                "nodes": nodes}

    def close(self) -> None:
        """Stop the replication worker and drop routing state."""
        with self._lock:
            self._closed = True
            worker = self._replica_worker
            self._routes.clear()
        if worker is not None and worker.is_alive():
            self._replica_q.put(None)  # sentinel: drain then exit
            worker.join(timeout=5.0)
