"""Priority job scheduler over a fixed set of owned worker threads.

Submitted jobs queue in one heap under one lock: higher priority first,
FIFO within a priority.  ``max_workers`` threads named ``repro-worker-N``
each pop the next ticket as soon as they are free, so a job waits only for
a busy worker, never for a timer.  An arriving job wakes the most recently
idled worker, so under light load one thread serves every job.

Batching happens *inside* a job, as in the paper: one traversal launch
covers every query point of a Borůvka round.  Separate jobs share no
launch to fuse, so the scheduler does not group them.

The scheduler is algorithm-agnostic: it runs an arbitrary ``runner``
callable per job and accounts wall time and features processed, reporting
throughput in MFeatures/s (via :func:`repro.metrics.mfeatures_per_second`)
so service numbers sit on the same axis as the figure benchmarks.

Every job runs on these threads, in this process.  Concurrent jobs use
more than one core wherever their compute releases the GIL: the compiled
traversal kernel (called through ``ctypes.CDLL``) and large NumPy
operations do, HDBSCAN's Python post-processing does not.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServiceError
from repro.metrics import jobs_per_second, mfeatures_per_second
from repro.obs import MetricsRegistry

@dataclass
class JobTicket:
    """Scheduler-side view of one submitted job.

    ``payload`` is opaque to the scheduler (the engine stores the job spec
    there).  The runner should set ``features`` (``n_points * dimension``)
    once known, feeding the throughput accounting.  Timestamps are
    ``time.perf_counter`` readings.
    """

    job_id: str
    payload: Any
    priority: int = 0
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    features: int = 0
    #: Set by the runner when the job ended in a failure it absorbed (the
    #: engine returns FAILED results instead of raising), so the
    #: scheduler's failure counter covers both absorbed and raised errors.
    failed: bool = False

    @property
    def queue_seconds(self) -> float:
        """Seconds spent waiting before a worker picked the job up."""
        if self.started_at is None:
            return time.perf_counter() - self.enqueued_at
        return self.started_at - self.enqueued_at

    @property
    def run_seconds(self) -> float:
        """Seconds the runner spent on the job (0.0 until started)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None \
            else time.perf_counter()
        return end - self.started_at


class Scheduler:
    """Runs queued tickets on ``max_workers`` threads it starts and joins.

    ``runner(ticket)`` executes one job and returns its result (delivered
    through ``ticket.future``); an exception from the runner fails only that
    job's future.
    """

    def __init__(self, runner: Callable[[JobTicket], Any], *,
                 max_workers: int = 2,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._runner = runner
        self.max_workers = max_workers
        self._heap: List[Any] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        #: Wake events of idle workers, the most recently idled last.
        self._idle: List[threading.Event] = []
        self._shutdown = False
        # Accounting lives in the metrics registry: `stats()` reads the
        # same instruments `/v1/metrics` scrapes, so the two surfaces can
        # never disagree.  The registry is shared with the engine when the
        # engine constructs the scheduler.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._jobs_submitted_c = self.registry.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted by the scheduler.")
        self._jobs_completed_c = self.registry.counter(
            "repro_jobs_completed_total",
            "Jobs whose runner finished (success or failure).")
        self._jobs_failed_c = self.registry.counter(
            "repro_jobs_failed_total",
            "Jobs that ended in failure (raised or absorbed).")
        self._features_done_c = self.registry.counter(
            "repro_features_done_total",
            "Features (n_points * dimension) of successfully computed jobs.")
        self._busy_seconds_c = self.registry.counter(
            "repro_busy_seconds_total",
            "Worker-busy seconds accumulated by job runners.")
        self._queue_wait_h = self.registry.histogram(
            "repro_queue_wait_seconds",
            "Seconds a job waited in the queue before a worker took it.")
        self.registry.gauge(
            "repro_queue_depth", "Jobs currently waiting in the queue.",
            fn=lambda: len(self._heap))
        # Remaining non-exposed accounting (guarded by _lock).
        self._first_enqueue: Optional[float] = None
        self._last_finish: Optional[float] = None
        # Daemon threads so an engine nobody closed cannot hang interpreter
        # exit; shutdown() is what drains and joins them.
        self._workers = [
            threading.Thread(target=self._work_loop, name=f"repro-worker-{i}",
                             daemon=True)
            for i in range(max_workers)]
        for worker in self._workers:
            worker.start()

    def submit(self, ticket: JobTicket) -> None:
        """Queue one ticket; its result arrives on ``ticket.future``."""
        ticket.enqueued_at = time.perf_counter()
        with self._lock:
            if self._shutdown:
                raise ServiceError("scheduler is shut down")
            heapq.heappush(self._heap,
                           (-ticket.priority, next(self._seq), ticket))
            if self._first_enqueue is None:
                self._first_enqueue = ticket.enqueued_at
            if self._idle:
                self._idle.pop().set()
        self._jobs_submitted_c.inc()

    def _work_loop(self) -> None:
        wake = threading.Event()
        while True:
            with self._lock:
                if self._heap:
                    ticket = heapq.heappop(self._heap)[2]
                elif self._shutdown:  # drained
                    return
                else:
                    ticket = None
                    wake.clear()
                    self._idle.append(wake)
            if ticket is None:
                wake.wait()
            else:
                self._run_one(ticket)

    def _run_one(self, ticket: JobTicket) -> None:
        # A future its holder cancelled while queued is skipped, the
        # standard executor contract; a running one can no longer be.
        if not ticket.future.set_running_or_notify_cancel():
            return
        ticket.started_at = time.perf_counter()
        self._queue_wait_h.observe(ticket.queue_seconds)
        try:
            result = self._runner(ticket)
        except BaseException as exc:  # noqa: BLE001 — forwarded to future
            ticket.finished_at = time.perf_counter()
            self._account(ticket, failed=True)
            ticket.future.set_exception(exc)
        else:
            ticket.finished_at = time.perf_counter()
            self._account(ticket, failed=False)
            ticket.future.set_result(result)

    def _account(self, ticket: JobTicket, *, failed: bool) -> None:
        self._jobs_completed_c.inc()
        if failed or ticket.failed:
            self._jobs_failed_c.inc()
        else:
            # Failed jobs keep their busy time but contribute no
            # features: throughput counts only completed compute.
            self._features_done_c.inc(ticket.features)
        self._busy_seconds_c.inc(ticket.run_seconds)
        with self._lock:
            self._last_finish = ticket.finished_at

    def shutdown(self) -> None:
        """Stop accepting jobs, run every queued one, join the workers."""
        with self._lock:
            self._shutdown = True
            for wake in self._idle:
                wake.set()
            self._idle.clear()
        for worker in self._workers:
            worker.join()

    def stats(self) -> Dict[str, Any]:
        """Queue depth and throughput counters, JSON-safe.

        ``mfeatures_per_sec`` prices completed work against worker-busy
        seconds (compute throughput); ``jobs_per_sec`` against the wall-clock
        span from first enqueue to last finish (service throughput).
        """
        jobs_submitted = int(self._jobs_submitted_c.value())
        jobs_completed = int(self._jobs_completed_c.value())
        jobs_failed = int(self._jobs_failed_c.value())
        features_done = int(self._features_done_c.value())
        busy_seconds = self._busy_seconds_c.value()
        with self._lock:
            span = None
            if self._first_enqueue is not None \
                    and self._last_finish is not None:
                span = self._last_finish - self._first_enqueue
            queue_depth = len(self._heap)
        return {
            "queue_depth": queue_depth,
            "max_workers": self.max_workers,
            "jobs_submitted": jobs_submitted,
            "jobs_completed": jobs_completed,
            "jobs_failed": jobs_failed,
            "busy_seconds": busy_seconds,
            "features_done": features_done,
            "mfeatures_per_sec": (
                mfeatures_per_second(features_done, 1, busy_seconds)
                if busy_seconds > 0 and features_done else 0.0),
            "jobs_per_sec": (
                jobs_per_second(jobs_completed, span)
                if span and span > 0 and jobs_completed else 0.0),
        }
