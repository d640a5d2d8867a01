"""Service benchmark — cache speedups and worker-count scaling.

Two experiments:

**Cache speedup** submits the same dataset workload through the engine
three ways:

* **cold** — empty caches: the job pays tree construction and the full
  Borůvka run;
* **tree-warm** — a different algorithm over the same points: the result
  cache misses but the content-addressed tree cache skips ``T_tree``;
* **result-warm** — an exact repeat: answered from the result cache.

**Worker scaling** runs a CPU-bound batch of *independent* jobs (distinct
dataset seeds, so no cache crosstalk) through a fresh engine per worker
count and records the batch wall-clock.  Jobs overlap wherever their
compute releases the GIL (the compiled kernel, large NumPy operations),
so the curve shows how much of a job that is.  The curve is recorded, not
gated: its shape depends on the host's core count.

Everything is written to ``reports/BENCH_service.json`` (plus the usual
rendered table) so CI can archive the perf trajectory.  Runs standalone
(``python benchmarks/bench_service.py``, see ``--help`` for smoke-sized
runs) or under the pytest-benchmark harness like the figure benchmarks.
"""

import argparse
import json
import os
import statistics
import time

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.data import generate
from repro.metrics import speedup
from repro.service import Engine, JobSpec

REPEATS = 5
#: Worker counts swept for the worker scaling curve.
WORKER_SWEEP = (1, 2, 4)


def _submit_and_time(engine, spec):
    job_id = engine.submit(spec)
    result = engine.result(job_id, timeout=600)
    assert result.status.value == "done", result.error
    return result, result.timings["run"]


def run(n_points: int = 20000):
    """Execute the cache workload; returns (measurements dict, table)."""
    points = generate("Normal100M3", n_points, seed=0)
    with Engine(max_workers=2) as engine:
        cold_result, cold = _submit_and_time(
            engine, JobSpec(points=points, algorithm="emst"))
        treewarm_result, tree_warm = _submit_and_time(
            engine, JobSpec(points=points, algorithm="mrd_emst", k_pts=4))
        warm_times = []
        for _ in range(REPEATS):
            warm_result, seconds = _submit_and_time(
                engine, JobSpec(points=points, algorithm="emst"))
            assert warm_result.cache["result_hit"]
            warm_times.append(seconds)
        warm = statistics.median(warm_times)

        # Throughput on a stream of small jobs (caching active).
        small_specs = [JobSpec(dataset=f"Uniform100M2:500:{seed % 4}")
                       for seed in range(20)]
        ids = [engine.submit(spec) for spec in small_specs]
        for job_id in ids:
            engine.result(job_id, timeout=600)
        sched = engine.stats()["scheduler"]

    assert not cold_result.cache["tree_hit"]
    assert treewarm_result.cache["tree_hit"]
    measurements = {
        "cold_seconds": cold,
        "tree_warm_seconds": tree_warm,
        "result_warm_seconds": warm,
        "tree_warm_speedup": speedup(cold, tree_warm),
        "result_warm_speedup": speedup(cold, warm),
        "jobs_per_sec": sched["jobs_per_sec"],
    }
    rows = [
        ["cold (build + solve)", cold * 1e3, 1.0],
        ["tree cache hit (mrd_emst)", tree_warm * 1e3,
         measurements["tree_warm_speedup"]],
        ["result cache hit (median)", warm * 1e3,
         measurements["result_warm_speedup"]],
    ]
    table = render_table(
        ["workload", "run ms", "speedup vs cold"], rows,
        title=f"Service cache speedup — Normal100M3 n={n_points} "
              f"(stream: {sched['jobs_completed']} jobs, "
              f"{sched['jobs_per_sec']:.1f} jobs/s)")
    save_report("bench_service.txt", table)
    return measurements, table


def _batch_wall_seconds(workers, n_points, n_jobs):
    """Wall-clock to drain ``n_jobs`` independent CPU-bound jobs."""
    specs = [JobSpec(dataset=f"Normal100M3:{n_points}:{seed}",
                     algorithm="mrd_emst", k_pts=4)
             for seed in range(n_jobs)]
    with Engine(max_workers=workers) as engine:
        started = time.perf_counter()
        ids = [engine.submit(spec) for spec in specs]
        for job_id in ids:
            result = engine.result(job_id, timeout=600)
            assert result.status.value == "done", result.error
        return time.perf_counter() - started


def run_worker_scaling(n_points: int = 6000, n_jobs: int = 8,
                       worker_sweep=WORKER_SWEEP):
    """Batch wall-clock over a sweep of worker-thread counts."""
    walls = {w: _batch_wall_seconds(w, n_points, n_jobs)
             for w in worker_sweep}
    base = walls[worker_sweep[0]]
    measurements = {
        "n_points": n_points,
        "n_jobs": n_jobs,
        "cpu_count": os.cpu_count(),
        "worker_sweep": list(worker_sweep),
        "wall_seconds": {str(w): walls[w] for w in worker_sweep},
        "speedup_vs_first": {str(w): speedup(base, walls[w])
                             for w in worker_sweep},
    }
    rows = [[w, walls[w], speedup(base, walls[w])] for w in worker_sweep]
    table = render_table(
        ["workers", "wall s", f"speedup vs {worker_sweep[0]}"], rows,
        title=f"Worker scaling — {n_jobs} independent mrd_emst jobs, "
              f"n={n_points} (cpu_count={os.cpu_count()})")
    save_report("bench_service_workers.txt", table)
    return measurements, table


def save_json(cache_measurements, worker_measurements):
    """Write the combined measurements to ``reports/BENCH_service.json``."""
    payload = {
        "benchmark": "bench_service",
        "cpu_count": os.cpu_count(),
        "cache": cache_measurements,
        "workers": worker_measurements,
    }
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_service.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check(measurements):
    # Acceptance: a repeated (cache-hit) job is >= 5x faster than cold.
    assert measurements["result_warm_speedup"] >= 5.0, measurements
    # Tree reuse alone must already help (T_tree is a real fraction of cold).
    assert measurements["tree_warm_seconds"] > measurements[
        "result_warm_seconds"]
    assert measurements["jobs_per_sec"] > 0


def bench_service(run_once):
    measurements, table = run_once(lambda: run())
    print("\n" + table)
    _check(measurements)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-points", type=int, default=20000,
                        help="points per job in the cache experiment")
    parser.add_argument("--batch-points", type=int, default=6000,
                        help="points per job in the worker-scaling batch")
    parser.add_argument("--batch-jobs", type=int, default=8,
                        help="independent jobs in the worker-scaling batch")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertions (CI smoke: "
                             "exercises every path, records the JSON)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_points, args.batch_points, args.batch_jobs = 2000, 800, 4

    cache_m, cache_table = run(n_points=args.n_points)
    print(cache_table)
    worker_m, worker_table = run_worker_scaling(
        n_points=args.batch_points, n_jobs=args.batch_jobs)
    print("\n" + worker_table)
    path = save_json(cache_m, worker_m)
    print(f"\nmeasurements written to {path}")
    if not args.smoke:
        _check(cache_m)
        print("ok: result-cache speedup "
              f"{cache_m['result_warm_speedup']:.0f}x (>= 5x required)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
