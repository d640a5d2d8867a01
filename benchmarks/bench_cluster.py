"""Cluster benchmark — what a K-node fleet is worth.

Drives the same batch of *distinct* CPU-bound jobs (different dataset
seeds, so no tier can answer from cache) through a
:class:`~repro.cluster.router.ClusterRouter` fronting first 1 and then K
``repro.service`` nodes.  Nodes are real subprocesses (``python -m repro
serve``), so K nodes mean K processes on K cores — one process's worker
threads share the GIL through the Python parts of every job and would
understate the scaling.

Measured per fleet size: wall time for the whole batch (submit-all, then
await-all through the router), jobs/s, and the fleet's pooled
MFeatures/s.  The speedup of K nodes over 1 is the headline — dispatch is
pure routing, so it should track K for compute-bound batches.

Results go to ``reports/BENCH_cluster.json`` (plus the rendered table).
Runs standalone: ``python benchmarks/bench_cluster.py`` (``--smoke`` for
CI sizes).
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.cluster import ClusterRouter, Node
from repro.metrics import jobs_per_second, speedup

FLEET_SIZES = (1, 3)
N_JOBS = 9
N_POINTS = 20000
K_PTS = 4


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_node(name, port, store_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "1", "--name", name, "--store-dir", store_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    url = f"http://127.0.0.1:{port}"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: node {name} exited early "
                             f"(code {proc.returncode})")
        try:
            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=5):
                return proc, url
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    proc.kill()
    raise SystemExit(f"FAIL: node {name} never became healthy")


def _run_fleet(n_nodes, bodies, store_root):
    """One batch through a router over ``n_nodes`` subprocess nodes."""
    procs, nodes = [], []
    try:
        for i in range(n_nodes):
            name = f"bench-node-{i}"
            proc, url = _start_node(name, _free_port(),
                                    os.path.join(store_root, name))
            procs.append(proc)
            nodes.append(Node(url, name=name))
        router = ClusterRouter(nodes, timeout=120.0)
        started = time.perf_counter()
        accepted = [router.submit(dict(body)) for body in bodies]
        for item in accepted:
            result, _node = router.job(item["job_id"], wait_s=60.0)
            while result["status"] not in ("done", "failed"):
                result, _node = router.job(item["job_id"], wait_s=60.0)
            assert result["status"] == "done", result.get("error")
        wall = time.perf_counter() - started
        fleet = router.stats()["fleet"]
        return {
            "nodes": n_nodes,
            "wall_seconds": wall,
            "jobs_per_sec": jobs_per_second(len(bodies), wall),
            "mfeatures_per_sec": fleet["mfeatures_per_sec"],
            "routed_by_node": router.stats()["router"]["routed_by_node"],
        }
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait(timeout=30)


def run(fleet_sizes=FLEET_SIZES, n_jobs=N_JOBS, n_points=N_POINTS):
    """Execute the 1-vs-K sweep; returns (measurements dict, table)."""
    bodies = [{"dataset": f"Normal100M3:{n_points}:{seed}",
               "algorithm": "mrd_emst", "k_pts": K_PTS}
              for seed in range(n_jobs)]
    by_fleet = {}
    rows = []
    store_root = tempfile.mkdtemp(prefix="repro-bench-cluster-")
    try:
        for n_nodes in fleet_sizes:
            # Each fleet size gets fresh store shards: the 1-node pass
            # must not seed warm disk result hits for the K-node pass, or
            # the speedup would mix cache warmth into the parallelism
            # number.
            stats = _run_fleet(n_nodes, bodies,
                               os.path.join(store_root, f"fleet-{n_nodes}"))
            by_fleet[str(n_nodes)] = stats
            rows.append([n_nodes, stats["wall_seconds"],
                         stats["jobs_per_sec"],
                         stats["mfeatures_per_sec"]])
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    baseline = by_fleet[str(fleet_sizes[0])]["wall_seconds"]
    for key, stats in by_fleet.items():
        stats["speedup_vs_1"] = speedup(baseline, stats["wall_seconds"])
    measurements = {"n_jobs": n_jobs, "n_points": n_points, "k_pts": K_PTS,
                    "fleet_sizes": list(fleet_sizes), "by_fleet": by_fleet}
    table = render_table(
        ["nodes", "wall s", "jobs/s", "MFeat/s (pooled)"], rows,
        title=f"Fleet throughput — {n_jobs} distinct mrd_emst jobs of "
              f"{n_points} points routed over subprocess nodes")
    save_report("bench_cluster.txt", table)
    return measurements, table


def save_json(measurements):
    """Write the measurements to ``reports/BENCH_cluster.json``."""
    payload = {"benchmark": "bench_cluster", "cpu_count": os.cpu_count(),
               **measurements}
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_cluster.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check(measurements):
    sizes = measurements["fleet_sizes"]
    biggest = measurements["by_fleet"][str(max(sizes))]
    # The ring must have spread the batch over more than one node.
    used = [n for n, count in biggest["routed_by_node"].items() if count]
    assert len(used) >= 2, biggest["routed_by_node"]
    # The throughput claim needs real cores: K single-worker node
    # processes on fewer than K cores just take turns on the scheduler
    # (and pay dispatch overhead), so the ratio is only recorded there.
    cores = os.cpu_count() or 1
    if cores >= max(sizes):
        # Conservative bar (perfect would be K) for slow CI boxes.
        assert biggest["speedup_vs_1"] >= 1.3, biggest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fleet-sizes", type=int, nargs="+",
                        default=list(FLEET_SIZES),
                        help="node counts to sweep (first is the baseline)")
    parser.add_argument("--jobs", type=int, default=N_JOBS)
    parser.add_argument("--points", type=int, default=N_POINTS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertions (CI smoke: "
                             "exercises the path, records the JSON)")
    args = parser.parse_args(argv)
    n_jobs, n_points = (6, 3000) if args.smoke else (args.jobs, args.points)

    measurements, table = run(fleet_sizes=tuple(args.fleet_sizes),
                              n_jobs=n_jobs, n_points=n_points)
    print(table)
    path = save_json(measurements)
    print(f"\nmeasurements written to {path}")
    if not args.smoke:
        _check(measurements)
        biggest = measurements["by_fleet"][str(max(args.fleet_sizes))]
        cores = os.cpu_count() or 1
        bar = (">= 1.3x required" if cores >= max(args.fleet_sizes)
               else f"recorded only: {cores} core(s) < "
                    f"{max(args.fleet_sizes)} nodes")
        print(f"ok: {max(args.fleet_sizes)}-node fleet "
              f"{biggest['speedup_vs_1']:.2f}x over 1 node ({bar})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
