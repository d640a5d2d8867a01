"""Continuous sampling profiler + runtime resource telemetry.

Answers "where do the cycles go on a *live* server" — the question the
source paper answers with hardware counters and this reproduction, until
now, could only answer with offline benchmarks.  Two collaborating
pieces, both stdlib-only and both fully disabled with the rest of the
obs layer (``REPRO_OBS=off`` / ``Engine(obs=False)``):

:class:`SamplingProfiler`
    A daemon thread walks :func:`sys._current_frames` at a low default
    rate (:data:`DEFAULT_PROFILE_HZ`) and appends one record per sampled
    thread into a bounded ring.  Each record carries the thread's stack
    (collapsed-form frames, outermost first) and the engine phase the
    thread was executing, read from the thread→phase registry that
    :meth:`repro.timing.PhaseTimer.phase` maintains — phase names are
    exactly the span-child names the trace layer emits (``resolve``,
    ``tree``, ``core``, ``mst``, ``tree_build``, ``compute``,
    ``encode``), which is what ties a wall-clock sample back to the
    span a job was in.  ``GET /v1/profile?seconds=&hz=`` bursts the
    sampling rate for an on-demand capture; without ``seconds=`` the
    endpoint answers instantly from the ring of recent samples.

:class:`ResourceCollector`
    ``/proc``-based RSS and CPU of the serving process (collect-on-scrape
    gauges, so an idle process pays nothing), plus GC pause timing via
    ``gc.callbacks`` into a ``repro_gc_pause_seconds`` histogram.

The profile wire document is JSON; :func:`render_collapsed` turns it
(or a router-merged fleet document) into standard collapsed-stack text
(``frame;frame;... count``) that ``flamegraph.pl`` and speedscope read
directly.  Stacks are prefixed with the attributed phase — and, in
fleet documents, with the node name — so a flamegraph splits by node
and phase at the root.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.timing import active_phases, phase_registry_size

__all__ = [
    "DEFAULT_PROFILE_HZ",
    "MAX_PROFILE_HZ",
    "MAX_PROFILE_SECONDS",
    "ResourceCollector",
    "SamplingProfiler",
    "merge_profiles",
    "render_collapsed",
]

#: Default always-on sampling rate.  Low and deliberately off any round
#: frequency so the sampler cannot phase-lock with periodic work; the
#: <3% overhead gate in ``benchmarks/bench_obs.py`` prices in exactly
#: this rate.
DEFAULT_PROFILE_HZ = 17.0
#: Hardest the wire surface lets a capture drive the sampler.
MAX_PROFILE_HZ = 199.0
#: Longest single on-demand capture (captures hold an HTTP worker).
MAX_PROFILE_SECONDS = 30.0
#: Deepest stack recorded per sample; frames beyond this are dropped
#: from the root end (the leaf side is what profiles are read for).
MAX_STACK_DEPTH = 64
#: Ring capacity in samples (one sample = one thread at one tick).  At
#: the default rate with a handful of threads this is minutes of
#: history; a burst capture recycles it in seconds, which is fine — a
#: capture only aggregates records newer than its own start.
DEFAULT_RING_SAMPLES = 8192
#: Most distinct (phase, stack) rows one profile document reports.
MAX_PROFILE_STACKS = 500

#: Sub-millisecond-capable buckets: GC pauses and event-loop lag live
#: well below the request-latency bucket floor.
PAUSE_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

_SRC_MARKERS = (os.sep + "src" + os.sep, os.sep + "site-packages" + os.sep,
                os.sep + "lib" + os.sep)


def _short_file(filename: str) -> str:
    """A recognizable short form of a frame's source path."""
    for marker in _SRC_MARKERS:
        index = filename.rfind(marker)
        if index >= 0:
            return filename[index + len(marker):]
    parts = filename.rsplit(os.sep, 2)
    return os.sep.join(parts[-2:]) if len(parts) > 1 else filename


def _format_frame(filename: str, name: str, lineno: int) -> str:
    """One collapsed-stack frame token: ``file:func:line``.

    No spaces or semicolons — both are structural in the collapsed
    format (``flamegraph.pl`` splits frames on ``;`` and the trailing
    count on the last space).
    """
    token = f"{_short_file(filename)}:{name}:{lineno}"
    return token.replace(";", ",").replace(" ", "_")


def _walk_stack(frame: Any) -> Tuple[str, ...]:
    """The frame's stack as collapsed tokens, outermost first."""
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        code = frame.f_code
        frames.append(_format_frame(code.co_filename, code.co_name,
                                    frame.f_lineno))
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


#: One stack read at a time, process-wide: each engine runs its own
#: sampler, and a read that finished first must not resume the collector
#: under one still in progress.
_READ_LOCK = threading.Lock()


def _other_thread_stacks() -> Dict[int, Tuple[str, ...]]:
    """The stack of every thread but the caller's, keyed by thread ident.

    Garbage collection is paused while other threads' frames are read.
    Reading them creates frame objects, and on CPython 3.11 the
    allocation runs a due collection on the spot; its ``gc.callbacks``
    and finalizers run Python code, which can hand the GIL to other
    threads in mid-read.  That crashes the process (the owning thread
    pops the frame being read, or exits while ``sys._current_frames``
    walks the thread list) or deadlocks it (``sys._current_frames``
    holds the runtime's thread-list lock, which an exiting or starting
    thread needs while it holds the GIL).  An enabled collector resumes
    as soon as the stacks are copied out.
    """
    own = threading.get_ident()
    with _READ_LOCK:
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            return {ident: _walk_stack(frame)
                    for ident, frame in sys._current_frames().items()
                    if ident != own}  # the sampler observing itself is noise
        finally:
            if paused:
                gc.enable()


class SamplingProfiler:
    """Always-on wall-clock sampler with on-demand burst captures."""

    def __init__(self, registry: MetricsRegistry, *,
                 hz: float = DEFAULT_PROFILE_HZ,
                 ring_samples: int = DEFAULT_RING_SAMPLES,
                 auto_start: bool = True) -> None:
        if not 0 < hz <= MAX_PROFILE_HZ:
            raise ValueError(
                f"profile hz must be in (0, {MAX_PROFILE_HZ}], got {hz}")
        self.registry = registry
        self.hz = float(hz)
        #: (monotonic ts, thread name, phase-or-None, stack tuple).
        self._ring: Deque[Tuple[float, str, Optional[str],
                                Tuple[str, ...]]] = deque(
            maxlen=ring_samples)
        self._samples_c = registry.counter(
            "repro_profile_samples_total",
            "Profiler samples taken, by phase-attribution state.",
            labels=("state",))
        self._in_phase_h = self._samples_c.labels(state="in_phase")
        self._idle_h = self._samples_c.labels(state="unattributed")
        self._sampling_seconds = 0.0
        registry.gauge(
            "repro_profile_sampling_seconds_total",
            "Cumulative wall seconds the profiler spent taking samples.",
            fn=lambda: self._sampling_seconds)
        self._started_mono = time.monotonic()
        self._burst_lock = threading.Lock()
        self._burst_until = 0.0
        self._burst_interval = 0.0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if auto_start:
            self.start()

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and wait for it (idempotent)."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)
        self._thread = None

    # ------------------------------------------------------------ sampling

    def _interval(self) -> float:
        now = time.monotonic()
        with self._burst_lock:
            if now < self._burst_until and self._burst_interval > 0:
                return self._burst_interval
        return 1.0 / self.hz

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample_once()
            self._wake.wait(self._interval())
            self._wake.clear()

    def sample_once(self) -> int:
        """Take one sample of every live thread; returns threads sampled.

        Public so tests can sample deterministically while threads sit
        in known phases, without racing the background loop's timing.
        """
        t0 = time.perf_counter()
        now = time.monotonic()
        stacks = _other_thread_stacks()
        phases = active_phases()
        names = {t.ident: t.name for t in threading.enumerate()}
        sampled = 0
        for ident, stack in stacks.items():
            if not stack:
                continue
            phase = phases.get(ident)
            self._ring.append((now, names.get(ident, f"thread-{ident}"),
                               phase, stack))
            (self._in_phase_h if phase is not None
             else self._idle_h).inc()
            sampled += 1
        self._sampling_seconds += time.perf_counter() - t0
        return sampled

    # ------------------------------------------------------------- capture

    def capture(self, seconds: float,
                hz: Optional[float] = None) -> Dict[str, Any]:
        """Burst-sample for ``seconds`` and return the captured profile.

        Temporarily raises the background loop's rate to ``hz`` (default
        :data:`MAX_PROFILE_HZ` capped at 4x the steady rate floor of
        50 Hz), blocks the calling thread for the window, then
        aggregates only the ring records taken inside it.  Concurrent
        captures simply extend each other's burst window.
        """
        seconds = max(0.0, min(float(seconds), MAX_PROFILE_SECONDS))
        rate = min(float(hz) if hz else max(50.0, self.hz), MAX_PROFILE_HZ)
        start = time.monotonic()
        deadline = start + seconds
        with self._burst_lock:
            self._burst_until = max(self._burst_until, deadline)
            self._burst_interval = 1.0 / rate
        self._wake.set()  # pull the sampler out of its steady-rate sleep
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.05))
        return self.profile_doc(since=start, hz=rate,
                                duration_s=time.monotonic() - start)

    def profile_doc(self, since: Optional[float] = None,
                    hz: Optional[float] = None,
                    duration_s: Optional[float] = None) -> Dict[str, Any]:
        """The JSON profile document over ring records newer than
        ``since`` (monotonic; ``None`` = the whole ring)."""
        records = [r for r in list(self._ring)
                   if since is None or r[0] >= since]
        counts: Dict[Tuple[Optional[str], Tuple[str, ...]], int] = {}
        phase_counts: Dict[str, int] = {}
        threads = set()
        in_phase = 0
        for _, name, phase, stack in records:
            threads.add(name)
            counts[(phase, stack)] = counts.get((phase, stack), 0) + 1
            if phase is not None:
                in_phase += 1
                phase_counts[phase] = phase_counts.get(phase, 0) + 1
        stacks = [{"phase": phase, "stack": list(stack), "count": count}
                  for (phase, stack), count in sorted(
                      counts.items(), key=lambda item: -item[1])]
        truncated = max(0, len(stacks) - MAX_PROFILE_STACKS)
        if truncated:
            stacks = stacks[:MAX_PROFILE_STACKS]
        span = 0.0
        if records:
            span = records[-1][0] - records[0][0]
        return {
            "version": 1,
            "enabled": True,
            "hz": float(hz if hz is not None else self.hz),
            "default_hz": self.hz,
            "duration_s": float(duration_s if duration_s is not None
                                else span),
            "samples": len(records),
            "in_phase_samples": in_phase,
            "threads": sorted(threads),
            "phases": dict(sorted(phase_counts.items(),
                                  key=lambda item: -item[1])),
            "stacks": stacks,
            "truncated_stacks": truncated,
        }

    # ---------------------------------------------------------------- misc

    def stats(self) -> Dict[str, Any]:
        """Small JSON-safe summary for ``/v1/admin/dump`` and benches."""
        in_phase = self._in_phase_h.value
        unattributed = self._idle_h.value
        return {
            "hz": self.hz,
            "running": bool(self._thread is not None
                            and self._thread.is_alive()),
            "samples_total": int(in_phase + unattributed),
            "in_phase_samples": int(in_phase),
            "unattributed_samples": int(unattributed),
            "sampling_seconds": self._sampling_seconds,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "ring_samples": len(self._ring),
            "phase_registry_threads": phase_registry_size(),
        }


def empty_profile_doc() -> Dict[str, Any]:
    """The well-formed answer of a profiler-less (obs-off) engine."""
    return {"version": 1, "enabled": False, "hz": 0.0, "default_hz": 0.0,
            "duration_s": 0.0, "samples": 0, "in_phase_samples": 0,
            "threads": [], "phases": {}, "stacks": [],
            "truncated_stacks": 0}


def render_collapsed(doc: Dict[str, Any]) -> str:
    """A profile document as collapsed-stack text.

    Lines are ``phase;frame;...;frame count`` (root first, leaf last),
    the input format of ``flamegraph.pl`` and speedscope.  Unattributed
    samples root at ``idle``; node-tagged stacks (router merges) root at
    ``node;phase``.
    """
    lines: List[str] = []
    for row in doc.get("stacks", []):
        prefix: List[str] = []
        node = row.get("node")
        if node:
            prefix.append(str(node).replace(";", ",").replace(" ", "_"))
        prefix.append(row.get("phase") or "idle")
        frames = prefix + list(row.get("stack", []))
        lines.append(f"{';'.join(frames)} {int(row.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_profiles(per_node: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-node profile documents into one fleet document.

    Every stack row gains a ``node`` tag; counts, phases and thread
    lists pool across nodes (threads are prefixed ``node:``); the fleet
    ``hz``/``duration_s`` report the maximum over nodes.
    """
    merged = empty_profile_doc()
    stacks: List[Dict[str, Any]] = []
    for node, doc in sorted(per_node.items()):
        if not isinstance(doc, dict):
            continue
        merged["enabled"] = bool(merged["enabled"] or doc.get("enabled"))
        merged["hz"] = max(merged["hz"], float(doc.get("hz", 0.0)))
        merged["default_hz"] = max(merged["default_hz"],
                                   float(doc.get("default_hz", 0.0)))
        merged["duration_s"] = max(merged["duration_s"],
                                   float(doc.get("duration_s", 0.0)))
        merged["samples"] += int(doc.get("samples", 0))
        merged["in_phase_samples"] += int(doc.get("in_phase_samples", 0))
        merged["truncated_stacks"] += int(doc.get("truncated_stacks", 0))
        merged["threads"].extend(f"{node}:{name}"
                                 for name in doc.get("threads", []))
        for phase, count in (doc.get("phases") or {}).items():
            merged["phases"][phase] = \
                merged["phases"].get(phase, 0) + int(count)
        for row in doc.get("stacks", []):
            stacks.append({**row, "node": node})
    stacks.sort(key=lambda row: -int(row.get("count", 0)))
    merged["truncated_stacks"] += max(0, len(stacks) - MAX_PROFILE_STACKS)
    merged["stacks"] = stacks[:MAX_PROFILE_STACKS]
    return merged


# --------------------------------------------------------------- resources

class ResourceCollector:
    """``/proc``-based process telemetry + GC pause histograms.

    Registers collect-on-scrape gauges for the process's RSS and CPU,
    labelled ``role="parent"`` (an idle process pays nothing; hosts
    without ``/proc`` read zeros) and a ``gc.callbacks`` hook timing
    every collector pause.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        try:
            self._page_size = os.sysconf("SC_PAGE_SIZE")
        except (ValueError, OSError, AttributeError):
            self._page_size = 4096
        try:
            self._clk_tck = os.sysconf("SC_CLK_TCK")
        except (ValueError, OSError, AttributeError):
            self._clk_tck = 100
        registry.gauge(
            "repro_process_rss_bytes",
            "Resident set size of the serving processes, by role.",
            labels=("role",), fn=self._collect_rss)
        registry.gauge(
            "repro_process_cpu_seconds",
            "Cumulative user+system CPU seconds, by role.",
            labels=("role",), fn=self._collect_cpu)
        self._gc_pause_h = registry.histogram(
            "repro_gc_pause_seconds",
            "Stop-the-world garbage-collector pause durations.",
            buckets=PAUSE_BUCKETS)
        self._gc_start: Optional[float] = None
        self._gc_cb_installed = False
        if registry.enabled:
            gc.callbacks.append(self._gc_callback)
            self._gc_cb_installed = True

    # --------------------------------------------------------------- /proc

    def _read_rss(self, pid: int) -> Optional[int]:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                fields = fh.read().split()
            return int(fields[1]) * self._page_size
        except (OSError, IndexError, ValueError):
            return None

    def _read_cpu(self, pid: int) -> Optional[float]:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                raw = fh.read().decode("ascii", "replace")
            # The comm field may contain spaces; parse after its ')'.
            fields = raw.rsplit(")", 1)[1].split()
            utime, stime = int(fields[11]), int(fields[12])
            return (utime + stime) / float(self._clk_tck)
        except (OSError, IndexError, ValueError):
            return None

    def _collect_rss(self) -> Dict[str, float]:
        return {"parent": float(self._read_rss(os.getpid()) or 0)}

    def _collect_cpu(self) -> Dict[str, float]:
        return {"parent": float(self._read_cpu(os.getpid()) or 0.0)}

    # ------------------------------------------------------------------ gc

    def _gc_callback(self, gc_phase: str, info: Dict[str, Any]) -> None:
        if gc_phase == "start":
            self._gc_start = time.perf_counter()
        elif gc_phase == "stop" and self._gc_start is not None:
            self._gc_pause_h.observe(time.perf_counter() - self._gc_start)
            self._gc_start = None

    # ---------------------------------------------------------------- misc

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-safe resource snapshot for ``/v1/admin/dump``."""
        parent_pid = os.getpid()
        gc_hist = self._gc_pause_h.histogram()
        return {
            "ts": time.time(),
            "parent": {"pid": parent_pid,
                       "rss_bytes": self._read_rss(parent_pid),
                       "cpu_seconds": self._read_cpu(parent_pid)},
            "gc": {"collections": int(gc_hist.count),
                   "pause_seconds_sum": float(gc_hist.sum)},
        }

    def close(self) -> None:
        """Remove the GC hook (idempotent)."""
        if self._gc_cb_installed:
            try:
                gc.callbacks.remove(self._gc_callback)
            except ValueError:  # pragma: no cover - already removed
                pass
            self._gc_cb_installed = False
