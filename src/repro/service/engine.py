"""The serving façade: submit jobs, await results, read statistics.

:class:`Engine` wires the priority scheduler and three cache tiers around
the core algorithms.  Per job it:

1. resolves the point source (inline array or dataset spec),
2. consults the **result tier** — an exact repeat (same point bytes, same
   algorithm and configuration) is answered without any computation,
3. consults the **tree tier** — a known point set reuses its tree's
   sort order, from which the job's ``tree_build`` phase rebuilds the
   :class:`~repro.bvh.bvh.BVH` without sorting,
4. for m.r.d./HDBSCAN jobs, consults the **core-distance tier** — keyed by
   ``(points, k_pts)`` only, so a repeat point set skips the batched k-NN
   (the paper's ``T_core``) even under a different tree configuration,
5. runs the compute, :func:`~repro.service.executor.execute_spec`, on the
   scheduler worker thread that took the job, and fills the caches from
   the outcome.  The payload is encoded to JSON once, here
   (:class:`~repro.store.blob.EncodedPayload`, timed as the ``encode``
   phase); the result tier and every job record hold those bytes, and
   each read of the job serves them without encoding the payload again.

:func:`~repro.service.executor.execute_spec` touches no engine state:
cache lookups happen before it runs and insertions after it returns.

With ``store_dir`` set, every tier is backed by a persistent
:class:`~repro.store.disk.DiskStore`: inserts spill to disk, restarts warm
from it (memory miss → disk hit → promote), so a restarted server answers
repeat traffic without re-paying ``T_core`` or the sort inside ``T_tree``
— the paper's amortization argument extended across process lifetimes.

The engine is directly embeddable (no server required)::

    with Engine(max_workers=2, store_dir="/var/cache/repro") as engine:
        job_id = engine.submit(JobSpec(dataset="Uniform100M2:10000"))
        result = engine.result(job_id)
"""

from __future__ import annotations

import io
import itertools
import os
import threading
import time
from collections import deque

import numpy as np
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.bvh.compiled import holding_core
from repro.errors import (
    InvalidInputError,
    NodeHTTPError,
    ReproError,
    ServiceError,
)
from repro.kokkos.counters import CostCounters
from repro.metrics import mfeatures_per_second
from repro.obs import (
    DEFAULT_ARCHIVE_BYTES,
    DEFAULT_PROFILE_HZ,
    DEFAULT_SAMPLE,
    DEFAULT_SLOS,
    DEFAULT_SLOW_THRESHOLD_S,
    MetricsRegistry,
    ResourceCollector,
    RetentionPolicy,
    SamplingProfiler,
    SloEngine,
    TraceArchive,
    empty_profile_doc,
    make_span,
    make_trace,
    new_trace_id,
    obs_enabled,
)
from repro.service.executor import execute_spec, make_exec_spec
from repro.service.jobs import (
    JobResult,
    JobSpec,
    JobStatus,
)
from repro.service.scheduler import JobTicket, Scheduler
from repro.store import (
    DEFAULT_STORE_BYTES,
    DiskStore,
    EncodedPayload,
    TieredCache,
    codec_for,
    combine_fingerprint,
    fingerprint_array,
    narrow_order,
    read_blob,
)
from repro.timing import PhaseTimer

#: Default byte budgets.  A cached tree is its sort order, 4 bytes per
#: point; a serialized result is tens of bytes per point.
DEFAULT_TREE_CACHE_BYTES = 256 << 20
DEFAULT_RESULT_CACHE_BYTES = 64 << 20
DEFAULT_CORE_CACHE_BYTES = 64 << 20
#: Byte bound on finished-job payloads kept queryable by id (the result
#: cache is budgeted separately; per-job records must be too).
DEFAULT_RETAINED_BYTES = 256 << 20


@dataclass
class _Inflight:
    """Rendezvous for jobs coalescing onto one in-flight computation.

    The first job to miss the result cache for a fingerprint becomes the
    *leader* and computes; followers arriving while it runs block on
    ``done`` and reuse its encoded payload instead of recomputing.  An
    ``encoded`` still ``None`` at ``done`` means the leader failed, which
    sends followers back to computing for themselves (no stampede
    control — a failed leader is the rare case).
    """

    done: threading.Event = field(default_factory=threading.Event)
    encoded: Optional[EncodedPayload] = None


@dataclass
class _JobRecord:
    """Engine-side bookkeeping for one submitted job."""

    spec: JobSpec
    ticket: JobTicket
    status: JobStatus = JobStatus.PENDING
    result: Optional[JobResult] = None
    #: Bytes this finished record keeps alive, charged against
    #: ``max_retained_bytes``.
    retained_nbytes: int = 0
    #: Trace context shipped with the submission (router hops), if any.
    trace_parent: Optional[Dict[str, Any]] = None
    #: Wall-clock submission time — trace spans need epoch timestamps so
    #: router- and node-side spans sit on one axis.
    submitted_wall: float = 0.0
    #: Tiers whose artifact arrived from a replica peer (read-through)
    #: during this job — drives the ``peer_fetch`` trace span.
    peer_tiers: List[str] = field(default_factory=list)


class Engine:
    """Serving engine over the single-tree EMST algorithms."""

    def __init__(self, *, max_workers: int = 2,
                 tree_cache_bytes: int = DEFAULT_TREE_CACHE_BYTES,
                 result_cache_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
                 core_cache_bytes: int = DEFAULT_CORE_CACHE_BYTES,
                 store_dir: Optional[str] = None,
                 store_bytes: int = DEFAULT_STORE_BYTES,
                 max_retained_jobs: int = 1024,
                 max_retained_bytes: int = DEFAULT_RETAINED_BYTES,
                 obs: Optional[bool] = None,
                 trace_archive_bytes: int = DEFAULT_ARCHIVE_BYTES,
                 trace_slow_threshold: float = DEFAULT_SLOW_THRESHOLD_S,
                 trace_sample: float = DEFAULT_SAMPLE,
                 slos: Optional[tuple] = None,
                 profile_hz: float = DEFAULT_PROFILE_HZ,
                 peers: Optional[Sequence[str]] = None,
                 peer_timeout: float = 5.0) -> None:
        if max_retained_jobs < 1:
            raise ValueError(
                f"max_retained_jobs must be >= 1, got {max_retained_jobs}")
        if max_retained_bytes < 1:
            raise ValueError(
                f"max_retained_bytes must be >= 1, got {max_retained_bytes}")
        #: One registry per engine — several engines share a test process
        #: (and the cluster demo), so instrumentation must not pool across
        #: them.  ``obs=None`` defers to the ``REPRO_OBS`` env knob;
        #: disabled, every instrument write is a single attribute check.
        self.registry = MetricsRegistry(
            enabled=obs_enabled() if obs is None else bool(obs))
        #: Name traces report for this engine's spans; the HTTP layer
        #: overwrites it with the served node name.
        self.node_name = ""
        #: Shared persistent spill target for all three tiers; ``None``
        #: keeps the engine memory-only (the pre-store behavior).
        self.store = DiskStore(store_dir, max_bytes=store_bytes) \
            if store_dir is not None else None
        self.tree_cache = TieredCache("tree", tree_cache_bytes, self.store,
                                      registry=self.registry)
        self.result_cache = TieredCache("result", result_cache_bytes,
                                        self.store, registry=self.registry)
        self.core_cache = TieredCache("core", core_cache_bytes, self.store,
                                      registry=self.registry)
        #: Replica peers consulted on a local miss before recomputing
        #: (read-through against their ``/v1/artifacts`` surface, in the
        #: configured order).  Empty = the pre-replication behavior.
        self.peers: List[str] = [u.rstrip("/") for u in (peers or ())]
        self._peer_clients: List[Any] = []
        self._peer_fetch_c = self.registry.counter(
            "repro_peer_fetch_total",
            "Peer artifact fetch attempts by tier and outcome "
            "(hit / miss / error).",
            labels=("tier", "outcome"))
        self._rebalance_copies_c = self.registry.counter(
            "repro_rebalance_copies_total",
            "Artifacts ingested by `repro rebalance` copies.")
        self._peer_timeout = peer_timeout
        if self.peers:
            self.set_peers(self.peers, timeout=peer_timeout)
        self._coalesced_c = self.registry.counter(
            "repro_coalesced_total",
            "Jobs answered by riding an identical in-flight computation.")
        self._job_h = self.registry.histogram(
            "repro_job_seconds",
            "End-to-end runner seconds per job, by algorithm.",
            labels=("algorithm",))
        self._phase_h = self.registry.histogram(
            "repro_phase_seconds",
            "Seconds spent in each actually-executed phase "
            "(replayed cache-hit phases are not observed).",
            labels=("phase",))
        self.registry.gauge(
            "repro_uptime_seconds", "Seconds since the engine started.",
            fn=lambda: time.perf_counter() - self._started_at)
        self.registry.gauge(
            "repro_cache_bytes",
            "Bytes currently held by each memory cache tier.",
            labels=("tier",),
            fn=lambda: {"tree": self.tree_cache.memory.current_bytes,
                        "result": self.result_cache.memory.current_bytes,
                        "core": self.core_cache.memory.current_bytes})
        self.registry.gauge(
            "repro_store_bytes",
            "Bytes currently held by the persistent disk store.",
            fn=lambda: (self.store.current_bytes
                        if self.store is not None else 0.0))
        #: Tail-sampled trace retention + the SLO burn-rate gauges, both
        #: alive only when instrumentation is on (with ``REPRO_OBS=off``
        #: no trace exists to retain and the gauges would read zeros).
        #: The archive persists under ``<store_dir>/traces`` when the
        #: engine has a store dir, memory-only otherwise.
        self.trace_archive: Optional[TraceArchive] = None
        self.slo_engine: Optional[SloEngine] = None
        #: Continuous sampling profiler + /proc resource telemetry, the
        #: same lifecycle: with ``REPRO_OBS=off`` neither exists, so the
        #: process runs no extra thread and installs no gc hook.
        self.profiler: Optional[SamplingProfiler] = None
        self.resources: Optional[ResourceCollector] = None
        if self.registry.enabled:
            archive_dir = os.path.join(store_dir, "traces") \
                if store_dir is not None else None
            self.trace_archive = TraceArchive(
                archive_dir, max_bytes=trace_archive_bytes,
                policy=RetentionPolicy(
                    slow_threshold_s=trace_slow_threshold,
                    sample=trace_sample),
                registry=self.registry)
            self.slo_engine = SloEngine(
                self.registry, slos=tuple(slos) if slos else DEFAULT_SLOS)
            self.profiler = SamplingProfiler(self.registry, hz=profile_hz,
                                             auto_start=False)
        #: Only the newest finished jobs stay queryable, bounded both by
        #: count and by total payload bytes (specs can carry inline point
        #: arrays and payloads can be large, so retention must be bounded
        #: on a long-running server).  In-flight jobs are never evicted.
        self.max_retained_jobs = max_retained_jobs
        self.max_retained_bytes = max_retained_bytes
        self._retain_floor = max(1, max_workers)
        self._retained_bytes = 0
        #: Memoized dataset-spec -> content fingerprint (specs are
        #: deterministic); lets exact repeats skip point regeneration.
        self._dataset_fp: Dict[str, str] = {}
        self._records: Dict[str, _JobRecord] = {}
        self._finished_order: Deque[str] = deque()
        #: In-flight computations by result fingerprint: identical
        #: concurrent jobs share one upstream execution (request
        #: coalescing); count of jobs answered that way.
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started_at = time.perf_counter()
        self._closed = False
        #: The construction-time configuration, verbatim, for the flight
        #: recorder — a dump must show what the process was booted with.
        self._config: Dict[str, Any] = {
            "max_workers": max_workers,
            "tree_cache_bytes": tree_cache_bytes,
            "result_cache_bytes": result_cache_bytes,
            "core_cache_bytes": core_cache_bytes,
            "store_dir": store_dir, "store_bytes": store_bytes,
            "max_retained_jobs": max_retained_jobs,
            "max_retained_bytes": max_retained_bytes,
            "obs_enabled": self.registry.enabled,
            "trace_archive_bytes": trace_archive_bytes,
            "trace_slow_threshold": trace_slow_threshold,
            "trace_sample": trace_sample,
            "profile_hz": profile_hz,
            "peers": list(self.peers),
            "peer_timeout": peer_timeout,
        }
        # Threads start and the gc hook goes in only after every argument
        # above was accepted: a rejected one must leave nothing running.
        # Scheduler checks max_workers before it starts a worker.
        self.scheduler = Scheduler(
            self._run_job, max_workers=max_workers, registry=self.registry)
        if self.profiler is not None:
            self.profiler.start()
            self.resources = ResourceCollector(self.registry)

    # ---------------------------------------------------------------- submit

    def submit(self, spec: JobSpec,
               trace: Optional[Dict[str, Any]] = None) -> str:
        """Queue a job; returns its id.  Spec errors raise synchronously;
        submitting to a closed engine raises :class:`ServiceError` (never a
        raw ``concurrent.futures`` shutdown error).

        ``trace`` is an upstream trace context (``{"trace_id", "spans"}``,
        typically parsed from the ``X-Repro-Trace`` header): the job's own
        spans are appended to it, so a routed job's trace shows the router
        hops ahead of the node-side lifecycle."""
        spec.validate()
        if self._closed:
            raise ServiceError("engine is closed")
        job_id = f"job-{next(self._ids):06d}"
        ticket = JobTicket(job_id=job_id, payload=spec,
                           priority=spec.priority)
        # The record must exist before the scheduler can hand the job to a
        # worker, or a fast worker would look it up before it is stored.
        with self._lock:
            self._records[job_id] = _JobRecord(
                spec=spec, ticket=ticket, trace_parent=trace,
                submitted_wall=time.time())
        try:
            self.scheduler.submit(ticket)
        except ServiceError as exc:
            ticket.future.set_exception(exc)  # no waiter may block on it
            with self._lock:
                del self._records[job_id]
            raise
        return job_id

    # ---------------------------------------------------------------- query

    def _record(self, job_id: str) -> _JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise InvalidInputError(f"unknown job id {job_id!r}")
        return record

    def status(self, job_id: str) -> JobStatus:
        """Current lifecycle state of ``job_id``."""
        return self._record(job_id).status

    def result(self, job_id: str, timeout: Optional[float] = None
               ) -> JobResult:
        """Block until ``job_id`` finishes and return its result.

        A failed job returns a ``FAILED`` :class:`JobResult` (it does not
        raise); ``TimeoutError`` if the job is still queued or running after
        ``timeout`` seconds.  Results older than ``max_retained_jobs``
        finished jobs are forgotten and report an unknown id.
        """
        return self._record(job_id).ticket.future.result(timeout)

    def future(self, job_id: str) -> Future[JobResult]:
        """The job's completion future.

        JobResult futures never raise (failures become FAILED results),
        so a waiter may park on the future without result-consumption
        obligations — the asyncio front end bridges it with
        :func:`asyncio.wrap_future` to long-poll without a thread.
        Unknown ids raise :class:`InvalidInputError`.
        """
        return self._record(job_id).ticket.future

    def queue_depth(self) -> int:
        """Unfinished jobs (pending + running) — the admission-control
        backlog the HTTP front end bounds at submit time."""
        with self._lock:
            return sum(1 for record in self._records.values()
                       if not record.status.finished)

    def poll(self, job_id: str) -> Optional[JobResult]:
        """The finished result of ``job_id``, or ``None`` if still in flight."""
        record = self._record(job_id)
        if record.result is not None:  # set before the future resolves
            return record.result
        try:
            return record.ticket.future.result(0)
        except FutureTimeoutError:
            return None

    def stats(self) -> Dict[str, Any]:
        """Engine, scheduler and per-tier cache statistics, JSON-safe."""
        with self._lock:
            by_status: Dict[str, int] = {s.value: 0 for s in JobStatus}
            for record in self._records.values():
                by_status[record.status.value] += 1
            total = len(self._records)
        coalesced = int(self._coalesced_c.value())
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "jobs": {"total": total, **by_status},
            "coalesced_hits": coalesced,
            "scheduler": self.scheduler.stats(),
            "tree_cache": self.tree_cache.stats(),
            "result_cache": self.result_cache.stats(),
            "core_cache": self.core_cache.stats(),
            "store": self.store.stats() if self.store is not None else None,
        }

    def flush(self, tier: Optional[str] = None) -> Dict[str, Any]:
        """Drop cached artifacts — every tier, or just ``tier`` — memory
        and disk.  Returns entry and byte counts reclaimed, JSON-safe.

        ``tier`` is one of ``tree`` / ``result`` / ``core``; ``None``
        empties everything (the original whole-cache flush).  Jobs already
        in flight keep any artifact references they hold; this only
        empties the caches.
        """
        tiers = {"tree": self.tree_cache, "result": self.result_cache,
                 "core": self.core_cache}
        if tier is not None and tier not in tiers:
            raise InvalidInputError(
                f"unknown cache tier {tier!r}; "
                f"use one of {', '.join(tiers)}")
        selected = tiers if tier is None else {tier: tiers[tier]}
        memory_bytes = sum(c.memory.current_bytes for c in selected.values())
        flushed: Dict[str, Any] = {name: cache.clear()
                                   for name, cache in selected.items()}
        flushed["memory_bytes"] = memory_bytes
        if self.store is None:
            flushed["store"] = 0
            flushed["store_bytes"] = 0
        elif tier is None:
            store_bytes = self.store.current_bytes
            flushed["store"] = self.store.clear()
            flushed["store_bytes"] = store_bytes
        else:
            entries, reclaimed = self.store.clear_tier(tier)
            flushed["store"] = entries
            flushed["store_bytes"] = reclaimed
        return flushed

    def compact(self) -> Optional[Dict[str, Any]]:
        """Force a journal compaction of the persistent store, if any.

        Returns the store's reclaim report, or ``None`` for a memory-only
        engine (nothing to compact is not an error — ops scripts can hit
        every node uniformly).
        """
        return self.store.compact() if self.store is not None else None

    # ------------------------------------------------------------ artifacts

    def artifact_entries(self) -> List[Dict[str, Any]]:
        """The persistent store's catalogue (empty for memory-only)."""
        return self.store.entries() if self.store is not None else []

    def artifact_bytes(self, tier: str, key: str) -> Optional[bytes]:
        """One stored artifact's raw blob bytes, or ``None``.

        Served straight off the store — deliberately *not* through the
        tiered lookup, so answering a peer never triggers this node's own
        peer-fetch (no fetch cycles between replicas).
        """
        self._check_tier(tier)
        if self.store is None:
            return None
        return self.store.get_blob_bytes(tier, key)

    def ingest_artifact(self, tier: str, key: str, data: bytes,
                        reason: str = "replica") -> bool:
        """Persist pushed blob bytes; returns whether they were stored.

        ``False`` on a memory-only node (a replica target without a store
        cannot hold warm state across restarts; the pusher counts it as
        rejected).  Bytes the tier's codec cannot decode raise
        :class:`InvalidInputError`, so a blob a lookup would read as a
        miss is never stored.
        """
        self._check_tier(tier)
        if self.store is None:
            return False
        decode = codec_for(tier)[1]
        try:
            decode(*read_blob(io.BytesIO(data)))
        except InvalidInputError:
            raise
        except Exception as exc:  # noqa: BLE001 — KeyError, ValueError, ...
            raise InvalidInputError(
                f"undecodable {tier} artifact: {exc}") from exc
        stored = self.store.put_blob_bytes(tier, key, data)
        if stored and reason == "rebalance":
            self._rebalance_copies_c.inc()
        return stored

    @staticmethod
    def _check_tier(tier: str) -> None:
        if tier not in ("tree", "result", "core"):
            raise InvalidInputError(
                f"unknown artifact tier {tier!r}; "
                f"use one of ('tree', 'result', 'core')")

    def set_peers(self, peers: Sequence[str], *,
                  timeout: Optional[float] = None) -> None:
        """(Re)wire the replica peers consulted on a local cache miss.

        Callable after construction too — a fleet whose node URLs are
        only known once every sibling has bound its port (dynamic-port
        tests, orchestrators) wires the mesh here.
        """
        # Function-level import: a node started without peers never
        # loads the HTTP client (``urllib.request`` costs start-up time).
        from repro.client import Client

        self.peers = [url.rstrip("/") for url in peers]
        if hasattr(self, "_config"):  # absent during __init__'s own call
            self._config["peers"] = list(self.peers)
        self._peer_clients = [
            Client(url, timeout=timeout if timeout is not None
                   else self._peer_timeout, retries=0)
            for url in self.peers]
        hook = self._fetch_from_peers if self._peer_clients else None
        for cache in (self.tree_cache, self.result_cache,
                      self.core_cache):
            cache.peer_fetch = hook

    def _fetch_from_peers(self, tier: str, key: str) -> Optional[bytes]:
        """Read-through hook the cache tiers call after a local miss.

        Asks each configured peer's artifact endpoint in order; the first
        copy wins.  Unreachable peers count as errors and the walk
        continues — a dead replica must degrade to recompute, never fail
        the job.
        """
        for client in self._peer_clients:
            try:
                data = client.artifact(tier, key)
            except NodeHTTPError:
                continue  # 404: this peer does not hold it
            except ReproError:
                self._peer_fetch_c.inc(tier=tier, outcome="error")
                continue
            self._peer_fetch_c.inc(tier=tier, outcome="hit")
            return data
        self._peer_fetch_c.inc(tier=tier, outcome="miss")
        return None

    # ------------------------------------------------------------- obs query

    def traces(self, query: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        """Archived-trace records matching ``query`` (see
        :meth:`repro.obs.TraceArchive.query`), plus archive statistics.

        With instrumentation off there is no archive; the answer is an
        empty, well-formed document rather than an error, so fleet-wide
        tooling can hit every node uniformly.
        """
        if self.trace_archive is None:
            return {"traces": [], "stats": None}
        return {"traces": self.trace_archive.query(**(query or {})),
                "stats": self.trace_archive.stats()}

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One archived trace record by id, or ``None``."""
        if self.trace_archive is None:
            return None
        return self.trace_archive.get(trace_id)

    def profile(self, seconds: Optional[float] = None,
                hz: Optional[float] = None) -> Dict[str, Any]:
        """A wall-clock profile document (``GET /v1/profile`` body).

        With ``seconds`` set, burst-samples for that window and returns
        what it captured; without it, answers instantly from the ring of
        recent always-on samples.  With instrumentation off the answer
        is an empty, well-formed document (``enabled: false``) rather
        than an error, matching :meth:`traces`.
        """
        if self.profiler is None:
            return empty_profile_doc()
        if seconds is not None and seconds > 0:
            return self.profiler.capture(seconds, hz)
        return self.profiler.profile_doc()

    def dump(self) -> Dict[str, Any]:
        """The engine's flight-recorder bundle: everything a postmortem
        wants from this process, in one JSON-safe snapshot."""
        with self._lock:
            inflight = [
                {"job_id": job_id, "status": record.status.value,
                 "algorithm": record.spec.algorithm,
                 "submitted_wall": record.submitted_wall}
                for job_id, record in self._records.items()
                if not record.status.finished]
        return {
            "ts": time.time(),
            "config": dict(self._config),
            "queue_depth": self.queue_depth(),
            "inflight_jobs": inflight,
            "stats": self.stats(),
            "metrics": self.registry.as_dict(),
            "slo": (self.slo_engine.report()
                    if self.slo_engine is not None else None),
            "trace_archive": (self.trace_archive.stats()
                              if self.trace_archive is not None else None),
            "profile": (self.profiler.stats()
                        if self.profiler is not None else None),
            "resources": (self.resources.snapshot()
                          if self.resources is not None else None),
        }

    # ---------------------------------------------------------------- worker

    def _run_job(self, ticket: JobTicket) -> JobResult:
        record = self._record(ticket.job_id)
        record.status = JobStatus.RUNNING
        try:
            with holding_core():  # kernel calls lease only the idle cores
                result = self._execute(ticket)
        except Exception as exc:  # noqa: BLE001 — a job failure must not
            # take down the worker; non-library errors keep their type name.
            message = str(exc) if isinstance(exc, ReproError) \
                else f"{type(exc).__name__}: {exc}"
            result = JobResult(
                job_id=ticket.job_id, status=JobStatus.FAILED,
                algorithm=record.spec.algorithm, error=message,
                timings={"queue": ticket.queue_seconds,
                         "run": ticket.run_seconds})
        ticket.failed = result.status is JobStatus.FAILED
        self._job_h.observe(ticket.run_seconds,
                            algorithm=record.spec.algorithm)
        if self.registry.enabled:
            self._observe_phases(result)
            result.trace = self._build_trace(record, ticket, result)
            if self.trace_archive is not None:
                # The retention decision happens here, at completion,
                # with the finished trace in hand — the archive stores
                # the *same object* the client sees on JobResult.trace.
                self.trace_archive.offer(
                    job_id=ticket.job_id, trace=result.trace,
                    outcome=result.status.value,
                    algorithm=record.spec.algorithm,
                    duration_s=ticket.run_seconds, node=self.node_name,
                    ts=time.time())
        # A finished record keeps only its encoded payload alive (even
        # after the result cache evicts it), so it is charged exactly the
        # payload's byte length, hit or miss.  Nothing reads a finished
        # job's inline points, so the record and the ticket drop them.
        if record.spec.points is not None:
            record.spec = replace(record.spec, points=None)
        ticket.payload = record.spec
        if result.encoded is not None:
            record.retained_nbytes = result.encoded.nbytes
        record.result = result  # before .status: a finished status must
        record.status = result.status  # imply a readable result
        with self._lock:
            self._finished_order.append(ticket.job_id)
            self._retained_bytes += record.retained_nbytes
            # Keep at least one finished record per worker: with a tiny
            # budget, concurrent completions must not evict a record in
            # the instant between its append and its future resolving.
            while len(self._finished_order) > self._retain_floor and (
                    len(self._finished_order) > self.max_retained_jobs
                    or self._retained_bytes > self.max_retained_bytes):
                old = self._records.pop(self._finished_order.popleft(), None)
                if old is not None:
                    self._retained_bytes -= old.retained_nbytes
        return result

    def _replayed_phases(self, result: JobResult) -> set:
        """Timing keys that were replayed from a cache, not executed.

        A tree-tier hit replays ``algo_tree``, a core-tier hit
        ``algo_core``; a result hit or a coalesced follower replays every
        algorithm phase.  (``resolve`` / ``tree_build`` / ``compute`` only
        appear in ``timings`` when they actually ran.)
        """
        replayed = set()
        if result.cache.get("tree_hit"):
            replayed.add("algo_tree")
        if result.cache.get("core_hit"):
            replayed.add("algo_core")
        if result.cache.get("result_hit") or result.cache.get("coalesced"):
            replayed.update(k for k in result.timings
                            if k.startswith("algo_"))
        return replayed

    def _observe_phases(self, result: JobResult) -> None:
        """Feed actually-executed phase timings into the phase histogram.

        Replayed phases carry the *original* run's wall time: observing
        them again would double-count work the cache specifically avoided.
        """
        replayed = self._replayed_phases(result)
        for name, seconds in result.timings.items():
            if name in ("queue", "run") or name in replayed:
                continue
            self._phase_h.observe(seconds, phase=name.removeprefix("algo_"))

    def _build_trace(self, record: _JobRecord, ticket: JobTicket,
                     result: JobResult) -> Dict[str, Any]:
        """The job's span tree: upstream hops + node-side lifecycle."""
        parent = record.trace_parent
        node = self.node_name
        submitted = record.submitted_wall or time.time()
        queue_s = result.timings.get("queue", 0.0)
        run_s = result.timings.get("run", 0.0)
        exec_start = submitted + queue_s
        spans = list(parent["spans"]) if parent else []
        spans.append(make_span(
            "submit", node=node, start=submitted, job_id=ticket.job_id,
            algorithm=record.spec.algorithm))
        spans.append(make_span(
            "queued", node=node, start=submitted, duration_s=queue_s))
        replayed = self._replayed_phases(result)
        children = []
        offset = exec_start
        for name, seconds in result.timings.items():
            if name in ("queue", "run"):
                continue
            meta = {"replayed": True} if name in replayed else {}
            children.append(make_span(
                name.removeprefix("algo_"), node=node, start=offset,
                duration_s=seconds, **meta))
            if not meta:  # replayed phases occupy no wall time here
                offset += seconds
        if record.peer_tiers:
            # Where the warm artifacts actually came from: a replica
            # peer's store, not local compute and not this node's disk.
            children.append(make_span(
                "peer_fetch", node=node, start=exec_start,
                tiers=",".join(record.peer_tiers)))
        exec_meta: Dict[str, Any] = {}
        if result.encoded is not None:
            totals = CostCounters(**result.encoded.counters)
            exec_meta["counters"] = totals.as_dict()
            exec_meta["divergence_factor"] = round(
                totals.divergence_factor, 4)
        spans.append(make_span(
            "executed", node=node, start=exec_start, duration_s=run_s,
            children=children, **exec_meta))
        if result.status is JobStatus.FAILED:
            spans.append(make_span("failed", node=node,
                                   start=exec_start + run_s,
                                   error=result.error))
        else:
            spans.append(make_span("served", node=node,
                                   start=exec_start + run_s,
                                   **result.cache))
        trace_id = parent["trace_id"] if parent else new_trace_id()
        return make_trace(trace_id, spans)

    def _execute(self, ticket: JobTicket) -> JobResult:
        spec: JobSpec = ticket.payload
        timer = PhaseTimer()
        # Dataset specs are deterministic, so their content fingerprint can
        # be memoized: a repeat job then reaches the result cache without
        # regenerating or rehashing the point set at all.
        points: Optional[np.ndarray] = None
        memo_key = None
        if spec.dataset is not None:  # normalize the optional CLI prefix
            memo_key = spec.dataset.removeprefix("dataset:")
        points_fp = (self._dataset_fp.get(memo_key)
                     if memo_key is not None else None)
        if points_fp is None:
            with timer.phase("resolve"):
                points = spec.resolve_points()
            points_fp = fingerprint_array(points)  # hash the buffer once
            if memo_key is not None:
                if len(self._dataset_fp) >= 4096:  # tiny entries, safety cap
                    self._dataset_fp.clear()
                self._dataset_fp[memo_key] = points_fp
        result_key = combine_fingerprint(points_fp, spec.params_key())
        encoded, result_src = self.result_cache.get_with_source(result_key)
        result_hit = encoded is not None
        tree_src = core_src = None
        tree_hit = core_hit = coalesced = False
        inflight: Optional[_Inflight] = None
        if encoded is None:
            # Request coalescing: identical in-flight fingerprints share
            # one upstream execution.  The first miss leads and computes;
            # concurrent repeats block on its completion and reuse the
            # payload (a follower of a *failed* leader falls through and
            # computes for itself).
            with self._lock:
                leader_entry = self._inflight.get(result_key)
                if leader_entry is None:
                    inflight = _Inflight()
                    self._inflight[result_key] = inflight
            if inflight is None and leader_entry is not None:
                leader_entry.done.wait()
                if leader_entry.encoded is not None:
                    encoded = leader_entry.encoded
                    coalesced = True
                    self._coalesced_c.inc()
        if encoded is None:
            try:
                encoded, outcome = self._compute_miss(
                    spec, points, points_fp, result_key, ticket, timer)
                if inflight is not None:
                    inflight.encoded = encoded
            finally:
                if inflight is not None:
                    with self._lock:
                        self._inflight.pop(result_key, None)
                    inflight.done.set()
            tree_hit = outcome["tree_hit"]
            tree_src = outcome["tree_src"]
            core_hit = outcome["core_hit"]
            core_src = outcome["core_src"]

        peer_tiers = [tier for tier, src in (("result", result_src),
                                             ("tree", tree_src),
                                             ("core", core_src))
                      if src == "peer"]
        if peer_tiers:
            self._record(ticket.job_id).peer_tiers = peer_tiers
        for name, seconds in encoded.phases.items():
            timer.add(f"algo_{name}", seconds)
        run_seconds = ticket.run_seconds
        return JobResult(
            job_id=ticket.job_id,
            status=JobStatus.DONE,
            algorithm=spec.algorithm,
            encoded=encoded,
            timings={"queue": ticket.queue_seconds, "run": run_seconds,
                     **timer.as_dict()},
            cache={"result_hit": result_hit, "tree_hit": tree_hit,
                   "core_hit": core_hit, "coalesced": coalesced,
                   "result_disk_hit": result_src == "disk",
                   "tree_disk_hit": tree_src == "disk",
                   "core_disk_hit": core_src == "disk"},
            mfeatures_per_sec=mfeatures_per_second(
                encoded.n_points, encoded.dimension,
                max(run_seconds, 1e-12)),
        )

    def _compute_miss(self, spec, points, points_fp, result_key, ticket,
                      timer):
        """Execute a result-cache miss end to end; returns
        ``(encoded payload, outcome-extras)`` and adds the executed phases,
        ``encode`` last, to ``timer``.  Factored out so the coalescing
        rendezvous in :meth:`_execute` can publish or discard the leader's
        computation in one place."""
        tree_key = combine_fingerprint(points_fp, spec.tree_key())
        tree_entry, tree_src = self.tree_cache.get_with_source(tree_key)
        tree_hit = tree_entry is not None
        # The core-distance tier applies to the metrics that need
        # ``T_core`` at all; its key folds in only ``k_pts`` (values
        # are caller-order, hence tree-independent), so an ``mrd_emst``
        # job and an ``hdbscan`` job share one artifact.
        core_key = None
        core_entry = None
        core_src = None
        core_hit = False
        if spec.algorithm in ("mrd_emst", "hdbscan"):
            core_key = combine_fingerprint(points_fp, spec.core_key())
            core_entry, core_src = \
                self.core_cache.get_with_source(core_key)
            core_hit = core_entry is not None
        exec_spec = make_exec_spec(
            spec, points=points,
            tree_order=tree_entry["order"] if tree_hit else None,
            core_state=core_entry)
        outcome = execute_spec(exec_spec)
        for name, seconds in outcome["phases"].items():
            timer.add(name, seconds)
        # The payload's one encoding: the result tier, coalesced followers
        # and retained job records all hold these bytes, and every read of
        # the job serves them as they are.
        with timer.phase("encode"):
            encoded = EncodedPayload.encode(outcome["payload"])
        # Only actually-computed features count toward the scheduler's
        # compute-throughput stat; cache hits would inflate it.
        ticket.features = outcome["features"]
        if outcome["tree_order"] is not None:
            # Built cold: nothing was cached, or the cached order did not
            # fit the points, and this job's own order replaces it.
            tree_hit, tree_src = False, None
            self.tree_cache.put(
                tree_key, {"order": narrow_order(outcome["tree_order"])})
        if core_key is not None and outcome["core_state"] is not None:
            self.core_cache.put(core_key, outcome["core_state"])
        self.result_cache.put(result_key, encoded)
        extras = {
            "tree_hit": tree_hit, "tree_src": tree_src,
            "core_hit": core_hit, "core_src": core_src,
        }
        return encoded, extras

    # ---------------------------------------------------------------- close

    def close(self) -> None:
        """Drain queued jobs and join the worker threads (idempotent)."""
        if not self._closed:
            self._closed = True
            self.scheduler.shutdown()
            if self.profiler is not None:
                self.profiler.stop()
            if self.resources is not None:
                self.resources.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
