#!/usr/bin/env python
"""Embed the job-serving engine: submit jobs, reuse caches, read stats.

Run:  python examples/service_quickstart.py [n_points]

The same engine that backs ``python -m repro serve`` is directly
importable.  This script submits an EMST job, an exact repeat (answered by
the result cache), and an HDBSCAN* job over the same points (which reuses
the cached BVH and skips tree construction), then prints the service
statistics a ``GET /v1/stats`` would return.
"""

import sys

from repro.data import generate
from repro.service import Engine, JobSpec

n = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
points = generate("VisualVar10M2D", n, seed=7)

with Engine(max_workers=2) as engine:
    cold_id = engine.submit(JobSpec(points=points, algorithm="emst"))
    cold = engine.result(cold_id)
    tree = cold.emst()
    print(f"{cold_id}: EMST of {tree.n_points} points, "
          f"weight {tree.total_weight:.4f}, "
          f"run {cold.timings['run'] * 1e3:.1f}ms "
          f"(cache: {cold.cache})")

    repeat = engine.result(engine.submit(JobSpec(points=points)))
    print(f"{repeat.job_id}: exact repeat, "
          f"run {repeat.timings['run'] * 1e3:.1f}ms "
          f"(cache: {repeat.cache})")

    cluster_job = engine.submit(
        JobSpec(points=points, algorithm="hdbscan", min_cluster_size=20))
    clustered = engine.result(cluster_job)
    payload = clustered.hdbscan()
    print(f"{cluster_job}: HDBSCAN* found {payload.n_clusters} clusters "
          f"({payload.noise_fraction:.1%} noise) "
          f"(cache: {clustered.cache})")

    stats = engine.stats()
    print(f"\nservice stats after {stats['jobs']['total']} jobs:")
    for tier in ("tree_cache", "result_cache"):
        c = stats[tier]
        print(f"  {c['name']:6s} cache: {c['entries']} entries, "
              f"{c['current_bytes'] / 1e6:.2f} MB, "
              f"hit rate {c['hit_rate']:.0%}")
    sched = stats["scheduler"]
    print(f"  scheduler   : {sched['jobs_completed']} jobs on "
          f"{sched['max_workers']} workers, "
          f"{sched['mfeatures_per_sec']:.2f} MFeatures/s busy throughput")
