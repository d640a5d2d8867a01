"""Socket-to-kernel benchmark of one ``repro serve`` node.

    python3 perfbench/run.py --workload cold_emst --seed 1 --seconds 30 \\
        --trace 0

starts the node with its shipped defaults, sets it up three times (spawn
to healthy, warm-up, prefill; the median is ``setup_s``), drives the
workload from this one process for ``--seconds``, stops the node, checks
every answer against the reference traversal engine and prints one JSON
line: the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of a traced node, after an untraced half-run of the same
inputs that prices the tracing.  Exit status: 0 ok, 1 a wrong answer,
2 bad usage or no repository, 3 an invalid open-loop run (the generator
fell behind its schedule), 4 the node failed, 130 interrupted.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.analysis import (  # noqa: E402
    layer_metrics,
    median,
    percentile,
    per_layer_metric_units,
    samples_beyond,
    tail_percentile,
)
from perfbench.node import Node, NodeError, Session  # noqa: E402
from perfbench.speed import factor, probe_once  # noqa: E402
from perfbench.oracle import (  # noqa: E402
    answer_digest,
    build_table,
    key_id,
    load_table,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

# Sizing: a 2-core box, ``--seconds 30``.  Each workload must finish at
# least 20 ops, so its tail percentile has ten samples beyond it.  Jobs
# come from fixed pools whose reference digests are precomputed
# (``oracle.py``); the pools hold ~5x the ops a run completes today, so a
# much faster kernel still draws distinct, pre-checked inputs.
COLD_N, COLD_POOL = 10_000, 500          # Hacc37M 3D, ~0.35 s per job
SHARED_N, SHARED_POOL = 10_000, 300      # PortoTaxi 2D, 3 jobs per session
WARM_RATE = 10.0                         # arrivals per second, open loop
WARM_SMALL_N, WARM_SMALL_POOL, WARM_SMALL_KEYS = 1_000, 256, 16
WARM_LARGE_N, WARM_LARGE_POOL, WARM_LARGE_SHARE = 50_000, 32, 0.1
#: The open loop is invalid, not slow, once sends run this late at p95.
MAX_LATE_P95_MS = 50.0
#: The open loop probes CPU speed only with nothing in flight and this
#: long before the next send, at most once per ``OPEN_PROBE_EVERY_S``.
OPEN_PROBE_GAP_S, OPEN_PROBE_EVERY_S = 0.04, 0.25

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "ok_rate": "ratio",
                    "setup_s": "s", "server_peak_rss_mb": "MiB"}


def _job(source: str, algorithm: str = "emst", *, inline: bool = False,
         k_pts: int = 5) -> Dict[str, Any]:
    return {"source": source, "algorithm": algorithm, "inline": inline,
            "k_pts": k_pts}


def _pool_order(seed: int, salt: str, pool: int) -> Callable[[int], int]:
    """Op ``i``'s dataset seed: a seeded permutation of ``1..pool``, then
    fresh seeds past the pool (checked live) if a run outgrows it."""
    order = random.Random(f"{salt}:{seed}").sample(range(1, pool + 1), pool)
    return lambda i: order[i] if i < pool else i + 1


def _bodies(jobs: List[Dict[str, Any]]) -> List[bytes]:
    """Request bodies; each inline point set is generated once."""
    from repro.data import generate_from_spec

    lists: Dict[str, list] = {}
    out = []
    for job in jobs:
        body: Dict[str, Any] = {"algorithm": job["algorithm"],
                                "k_pts": job["k_pts"]}
        if job["inline"]:
            if job["source"] not in lists:
                lists[job["source"]] = \
                    generate_from_spec(job["source"]).tolist()
            body["points"] = lists[job["source"]]
        else:
            body["dataset"] = job["source"]
        out.append(json.dumps(body).encode())
    return out


# ---------------------------------------------------------------- workloads

class Workload:
    """Inputs of one workload, all derived from the seed."""

    open_loop = False

    def setup_jobs(self) -> List[Dict[str, Any]]:
        """Warm-up and prefill jobs, run during every set-up."""
        raise NotImplementedError

    def op_jobs(self, index: int) -> List[Dict[str, Any]]:
        """The jobs of closed-loop op ``index``, sent in order."""
        raise NotImplementedError

    @classmethod
    def pool_jobs(cls) -> List[Dict[str, Any]]:
        """Every job a run can draw, for the reference-digest table."""
        raise NotImplementedError


class ColdEmst(Workload):
    """Distinct clustered 3D point sets: every job misses every cache."""

    def __init__(self, seed: int) -> None:
        self._seed_of = _pool_order(seed, "cold_emst", COLD_POOL)

    @staticmethod
    def _emst(seed: int) -> Dict[str, Any]:
        return _job(f"Hacc37M:{COLD_N}:{seed}")

    def setup_jobs(self):
        return [_job("Hacc37M:2000:0")]

    def op_jobs(self, index):
        return [self._emst(self._seed_of(index))]

    @classmethod
    def pool_jobs(cls):
        return [cls._emst(s) for s in range(1, COLD_POOL + 1)]


class SharedPoints(Workload):
    """Upload fresh points once per op, analyse them three ways."""

    def __init__(self, seed: int) -> None:
        self._seed_of = _pool_order(seed, "shared_points", SHARED_POOL)

    @staticmethod
    def _session(source: str) -> List[Dict[str, Any]]:
        return [_job(source, algorithm, inline=True, k_pts=4)
                for algorithm in ("emst", "mrd_emst", "hdbscan")]

    def setup_jobs(self):
        return self._session("PortoTaxi:1000:0")

    def op_jobs(self, index):
        return self._session(f"PortoTaxi:{SHARED_N}:{self._seed_of(index)}")

    @classmethod
    def pool_jobs(cls):
        return [job for s in range(1, SHARED_POOL + 1)
                for job in cls._session(f"PortoTaxi:{SHARED_N}:{s}")]


class WarmHits(Workload):
    """Seeded Poisson repeats of results prefilled during set-up."""

    open_loop = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"warm_hits:{seed}")
        self.small = [self._small(s) for s in rng.sample(
            range(1, WARM_SMALL_POOL + 1), WARM_SMALL_KEYS)]
        self.large = self._large(rng.randrange(1, WARM_LARGE_POOL + 1))
        self._rng = rng

    @staticmethod
    def _small(seed: int) -> Dict[str, Any]:
        return _job(f"Uniform100M2:{WARM_SMALL_N}:{seed}")

    @staticmethod
    def _large(seed: int) -> Dict[str, Any]:
        return _job(f"Uniform100M2:{WARM_LARGE_N}:{seed}")

    @classmethod
    def pool_jobs(cls):
        return ([cls._small(s) for s in range(1, WARM_SMALL_POOL + 1)]
                + [cls._large(s) for s in range(1, WARM_LARGE_POOL + 1)])

    def setup_jobs(self):
        # The prefill, then one hit so the warm path is warm too.
        return [self.large, *self.small, self.small[0]]

    def schedule(self, seconds: float) -> List[Tuple[float, Dict]]:
        """``(due offset, job)`` pairs of a Poisson arrival process.

        The process is conditioned on its count, ``rate * seconds``
        arrivals scattered uniformly over the window, with exactly the
        large share going to the large key: the offered load and the
        number of samples behind the tail do not vary with the seed.
        """
        rng = self._rng
        n = max(1, round(WARM_RATE * seconds))
        n_large = round(n * WARM_LARGE_SHARE)
        jobs = [self.large] * n_large + [
            rng.choice(self.small) for _ in range(n - n_large)]
        rng.shuffle(jobs)
        return list(zip(sorted(rng.uniform(0.0, seconds)
                               for _ in range(n)), jobs))


WORKLOADS = {"cold_emst": ColdEmst, "warm_hits": WarmHits,
             "shared_points": SharedPoints}


# ------------------------------------------------------------------ drivers

def _probe(probes: List[Tuple[float, float]]) -> None:
    start = time.perf_counter()
    duration = probe_once()
    probes.append((start + duration / 2, duration))


def _op(jobs, results, due, sent, done, begun=None) -> Dict[str, Any]:
    """One op: ``due`` when it should have been sent, ``sent`` when it
    was, ``done`` at its last byte; ``begun`` when a closed-loop client
    started preparing it (the op's share of the loop's time)."""
    return {"jobs": jobs, "results": results, "due": due, "sent": sent,
            "done": done, "begun": due if begun is None else begun}


def closed_loop(port: int, workload: Workload, seconds: float
                ) -> Tuple[List[Dict[str, Any]], float, Dict[str, Any]]:
    """One client, next op after the previous answer; runs ``seconds``.

    The CPU-speed probe runs before each op, while the node is idle.
    """
    session = Session(port)
    ops = []
    probes = []
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            _probe(probes)
            begun = time.perf_counter()
            jobs = workload.op_jobs(len(ops))
            bodies = _bodies(jobs)  # client-side prep, outside the op
            sent = time.perf_counter()
            results = [session.run_job(body) for body in bodies]
            ops.append(_op(jobs, results, sent, sent, time.perf_counter(),
                           begun))
        elapsed = time.perf_counter() - t0
    finally:
        session.close()
    return ops, elapsed, {"probes": probes}


def open_loop(port: int, workload: WarmHits, seconds: float
              ) -> Tuple[List[Dict[str, Any]], float, Dict[str, Any]]:
    """Send on the seeded schedule whatever the answers do.

    Latency runs from when a request was due, so a stall is charged to
    every request it delays; how late sends left is recorded apart.  The
    CPU-speed probe runs only while nothing is in flight and the next
    send is far enough off, so it delays no send and meets an idle node.
    """
    schedule = workload.schedule(seconds)
    keys = {key_id(job): job for _, job in schedule}
    bodies = dict(zip(keys, _bodies(list(keys.values()))))
    local = threading.local()
    sessions: List[Session] = []
    lock = threading.Lock()
    inflight = [0]
    probes: List[Tuple[float, float]] = []

    def send(due: float, job: Dict[str, Any]) -> Dict[str, Any]:
        try:
            session = getattr(local, "session", None)
            if session is None:
                session = local.session = Session(port)
                with lock:
                    sessions.append(session)
            sent = time.perf_counter()
            result = session.run_job(bodies[key_id(job)])
            return _op([job], [result], due, sent, time.perf_counter())
        finally:
            with lock:
                inflight[0] -= 1

    futures = []
    with ThreadPoolExecutor(max_workers=16,
                            thread_name_prefix="perfbench-send") as pool:
        try:
            t0 = time.perf_counter() + 0.05
            last_probe = 0.0
            for offset, job in schedule:
                due = t0 + offset
                while (now := time.perf_counter()) < due:
                    if (inflight[0] == 0 and due - now >= OPEN_PROBE_GAP_S
                            and now - last_probe >= OPEN_PROBE_EVERY_S):
                        last_probe = now
                        _probe(probes)
                    else:
                        time.sleep(min(due - now, 0.005))
                with lock:
                    inflight[0] += 1
                futures.append(pool.submit(send, due, job))
            ops = [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
            for session in sessions:
                session.close()
    late = [1000.0 * (op["sent"] - op["due"]) for op in ops]
    extra = {"late_p50_ms": percentile(late, 50),
             "late_p95_ms": percentile(late, 95),
             "late_max_ms": max(late)} if late else {}
    elapsed = max((op["done"] for op in ops), default=t0 + seconds) - t0
    extra["probes"] = probes
    return ops, elapsed, extra


def drive(port: int, workload: Workload, seconds: float):
    """Run the window; returns ``(ops, elapsed, extra)`` with every op's
    ``speed`` factor set from the CPU-speed probes the loop took."""
    loop = open_loop if workload.open_loop else closed_loop
    ops, elapsed, extra = loop(port, workload, seconds)
    probes = extra.pop("probes", [])
    for op in ops:
        op["speed"] = factor(probes, op["due"], op["done"])
    if probes:
        durations = [d for _, d in probes]
        extra.update(probe_p50_ms=1000.0 * percentile(durations, 50),
                     probe_p90_ms=1000.0 * percentile(durations, 90))
    return ops, elapsed, extra


# ------------------------------------------------------------------ set-up

def set_up(workload: Workload, workdir: Path,
           spans_path: Optional[Path] = None) -> Tuple[Node, float]:
    """Spawn, wait for health, run warm-up and prefill; timed as one."""
    jobs = workload.setup_jobs()
    bodies = _bodies(jobs)
    node = Node(ROOT, workdir, spans_path=spans_path)
    t0 = time.perf_counter()
    try:
        node.start()
        session = Session(node.port)
        try:
            for job, body in zip(jobs, bodies):
                result = session.run_job(body)
                if result["status"] != "done":
                    raise NodeError(f"set-up job {job} failed: "
                                    f"{result['error']}\n{node.log()}")
        finally:
            session.close()
    except BaseException:
        node.stop()
        raise
    return node, time.perf_counter() - t0


# ----------------------------------------------------------------- checking

def reference_digests(ops: List[Dict[str, Any]]) -> Tuple[Dict[str, str],
                                                          int]:
    """Reference digest per job: the table, else computed live (after
    the window; the node is stopped by then).  Returns the count of live
    computations too."""
    table = load_table()
    missing = [job for op in ops for job in op["jobs"]
               if key_id(job) not in table]
    if missing:
        table.update(build_table(missing))
    return table, len({key_id(job) for job in missing})


def check(ops: List[Dict[str, Any]], digests: Dict[str, str]
          ) -> Dict[str, Any]:
    """Parse every final document and compare it with the oracle.

    Marks each op ``ok``; counts ops failed (transport error, shed, failed
    job) and wrong (an answer that differs from the reference).
    """
    failed = wrong = 0
    errors: List[str] = []
    # Repeats of one job (warm hits) usually serve an equal payload;
    # comparing dicts is far cheaper than re-hashing 50k-point answers.
    seen: Dict[str, Tuple[Dict[str, Any], str]] = {}
    for op in ops:
        op["docs"] = []
        op_failed = op_wrong = False
        for job, result in zip(op["jobs"], op["results"]):
            if result["error"] or result["raw"] is None:
                op_failed = True
                errors.append(result["error"] or "no answer")
                continue
            doc = json.loads(result["raw"])
            op["docs"].append(doc)
            if doc.get("status") != "done":
                op_failed = True
                errors.append(f"{doc.get('job_id')}: {doc.get('error')}")
                continue
            key, payload = key_id(job), doc["payload"]
            if key in seen and seen[key][0] == payload:
                digest = seen[key][1]
            else:
                digest = answer_digest(payload)
                seen.setdefault(key, (payload, digest))
            if digest != digests[key]:
                op_wrong = True
                errors.append(f"{doc.get('job_id')}: wrong answer for {job}")
        op["ok"] = not (op_failed or op_wrong)
        failed += op_failed and not op_wrong
        wrong += op_wrong
    return {"attempted": len(ops), "failed": failed, "wrong": wrong,
            "errors": errors[:5]}


def latencies_ms(ops: List[Dict[str, Any]], scaled: bool = True
                 ) -> List[float]:
    """Due-to-answer latency of each correctly answered op, at the
    reference CPU speed unless ``scaled`` is false."""
    return [1000.0 * (op["done"] - op["due"]) * (op["speed"] if scaled
                                                 else 1.0)
            for op in ops if op["ok"]]


def throughput(ops: List[Dict[str, Any]], elapsed: float,
               open_loop: bool) -> float:
    """Correct ops per second.  A closed loop's time is the sum of its
    ops' cycles at the reference speed; an open loop's rate is set by
    its arrivals, so it is taken as measured."""
    n_ok = sum(op["ok"] for op in ops)
    if open_loop:
        return n_ok / elapsed
    return n_ok / sum((op["done"] - op["begun"]) * op["speed"] for op in ops)


def end_to_end(ops, elapsed, setups, rss_mb, open_loop
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    lat = latencies_ms(ops)
    if not lat:
        raise NodeError("no op was answered correctly")
    raw = latencies_ms(ops, scaled=False)
    tail_p = tail_percentile(len(lat))
    metrics = {
        "op_p50_ms": median(lat),
        "op_tail_ms": percentile(lat, tail_p),
        "ops_per_s": throughput(ops, elapsed, open_loop),
        "ok_rate": len(lat) / len(ops),
        "setup_s": median(setups),
        "server_peak_rss_mb": rss_mb,
    }
    record = {"samples": len(lat), "tail_percentile": tail_p,
              "tail_samples_beyond": samples_beyond(lat, tail_p),
              "error_rate": 1.0 - len(lat) / len(ops),
              "raw_op_p50_ms": median(raw),
              "raw_op_tail_ms": percentile(raw, tail_p),
              "raw_ops_per_s": len(lat) / elapsed,
              "setups_s": setups, "elapsed_s": elapsed}
    return metrics, record


# --------------------------------------------------------------------- main

def run_record(args) -> Dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure(args, workload: Workload, workdir: Path, record):
    """The untraced run: set up ``SETUPS`` times, drive, stop, check."""
    setups: List[float] = []
    node = None
    for i in range(SETUPS):
        node, seconds = set_up(workload, workdir)
        setups.append(seconds)
        if i < SETUPS - 1:
            node.stop()
    try:
        ops, elapsed, extra = drive(node.port, workload, args.seconds)
        rss_mb = node.peak_rss_mb()
    finally:
        node.stop()
    record.update(extra)
    digests, record["live_checks"] = reference_digests(ops)
    verdict = check(ops, digests)
    metrics, summary = end_to_end(ops, elapsed, setups, rss_mb,
                                  workload.open_loop)
    record.update(summary)
    return verdict, {k: (metrics[k], END_TO_END_UNITS[k]) for k in metrics}


def measure_traced(args, workload_cls, workdir: Path, record):
    """Half the time untraced, then the same inputs on a traced node."""
    half = args.seconds / 2.0
    halves = []
    for traced in (False, True):
        workload = workload_cls(args.seed)
        spans_path = workdir / "spans.json" if traced else None
        node, _ = set_up(workload, workdir, spans_path=spans_path)
        try:
            ops, _, extra = drive(node.port, workload, half)
        finally:
            node.stop()
        halves.append(ops)
        record["traced" if traced else "untraced"] = extra
    spans = json.loads((workdir / "spans.json").read_text())
    digests, record["live_checks"] = reference_digests(halves[0] + halves[1])
    verdicts = [check(ops, digests) for ops in halves]
    verdict = {key: sum(v[key] for v in verdicts)
               for key in ("attempted", "failed", "wrong")}
    verdict["errors"] = verdicts[0]["errors"] + verdicts[1]["errors"]
    untraced, traced = halves
    ok_traced = [op for op in traced if op["ok"]]
    if not ok_traced or not latencies_ms(untraced):
        raise NodeError("no op was answered correctly")
    metrics = layer_metrics(ok_traced, spans)
    metrics["trace.overhead_ms"] = (median(latencies_ms(traced))
                                    - median(latencies_ms(untraced)))
    record["spans"] = len(spans)
    record["samples"] = [len(latencies_ms(untraced)), len(ok_traced)]
    units = per_layer_metric_units()
    return verdict, {k: (metrics[k], units[k]) for k in units}


def result_line(verdict: Dict[str, Any],
                metrics: Dict[str, Tuple[float, str]]
                ) -> Tuple[Dict[str, Any], int]:
    """The final stdout line and the exit status: any wrong answer fails
    the run, whatever the timings."""
    result = {"correct": verdict["wrong"] == 0,
              "attempted": verdict["attempted"],
              "failed": verdict["failed"] + verdict["wrong"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, 0 if result["correct"] else 1


def _terminate(signum, frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    record = run_record(args)
    try:
        if args.trace:
            verdict, metrics = measure_traced(args, WORKLOADS[args.workload],
                                              workdir, record)
        else:
            workload = WORKLOADS[args.workload](args.seed)
            verdict, metrics = measure(args, workload, workdir, record)
    except NodeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    record.update({k: verdict[k] for k in ("attempted", "failed", "wrong")})
    record["errors"] = verdict["errors"]
    print("record " + json.dumps(record))
    shown = dict(metrics)
    if "error_rate" in record:  # the complement of ok_rate, for reading
        shown["error_rate"] = (record["error_rate"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    late = max(record.get("late_p95_ms", 0.0),
               record.get("traced", {}).get("late_p95_ms", 0.0),
               record.get("untraced", {}).get("late_p95_ms", 0.0))
    if late > MAX_LATE_P95_MS:
        print(f"perfbench: invalid run: the open-loop generator fell "
              f"behind (p95 send lateness {late:.1f} ms > "
              f"{MAX_LATE_P95_MS} ms)", file=sys.stderr)
        return 3
    result, code = result_line(verdict, metrics)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
