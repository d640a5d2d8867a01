"""Store benchmark — what a warm restart is worth.

Simulates the serve → kill → serve lifecycle over a sweep of problem
sizes.  For each size the same m.r.d. EMST job is timed three ways:

* **cold** — a fresh engine, empty store: pays ``T_tree`` + ``T_core`` +
  the Borůvka run;
* **restart, result-warm** — a *new* engine over the same ``--store-dir``
  repeating the exact job: answered from the disk result tier, no
  recompute;
* **restart, artifact-warm** — a new engine over the same store running a
  *different* job on the same points (``hdbscan`` instead of
  ``mrd_emst``): the result tier misses but the disk BVH and
  core-distance tiers skip ``T_tree`` and ``T_core``.  Its speedup is
  taken over the same ``hdbscan`` job run cold on a fresh store, since
  ``hdbscan`` adds linkage, condensing and a larger payload to the
  ``mrd_emst`` work; each of the two timings is the best of
  ``HDBSCAN_RUNS``, every run on its own throwaway store.

Each warm measurement uses a freshly constructed :class:`Engine` so the
memory tiers start empty — the disk store is the only thing carrying
state across "restarts", exactly as after a process kill.

Results go to ``reports/BENCH_store.json`` (plus the rendered table).
Runs standalone: ``python benchmarks/bench_store.py`` (``--smoke`` for CI
sizes).
"""

import argparse
import json
import os
import shutil
import tempfile
import time

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.metrics import speedup
from repro.service import Engine, JobSpec

SIZES = (5000, 20000)
K_PTS = 4
#: Runs per hdbscan timing: the phases artifact warmth skips are ~10% of
#: a 5k-point job, about the spread of one run on a 2-core box.
HDBSCAN_RUNS = 3


def _run_once(store_dir, spec):
    """One job on a freshly started engine over ``store_dir``."""
    with Engine(max_workers=1, store_dir=store_dir) as engine:
        started = time.perf_counter()
        result = engine.result(engine.submit(spec), timeout=600)
        wall = time.perf_counter() - started
    assert result.status.value == "done", result.error
    return result, wall


def _run_on_copy(spec, source_dir=None):
    """:func:`_run_once` over a throwaway store: empty, or a copy of
    ``source_dir``, so every warm run misses the result tier."""
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        if source_dir is not None:
            shutil.copytree(source_dir, store_dir, dirs_exist_ok=True)
        return _run_once(store_dir, spec)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def run(sizes=SIZES):
    """Execute the cold/warm sweep; returns (measurements dict, table)."""
    rows = []
    by_size = {}
    for n_points in sizes:
        store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            mrd = JobSpec(dataset=f"Normal100M3:{n_points}",
                          algorithm="mrd_emst", k_pts=K_PTS)
            cold_result, cold = _run_once(store_dir, mrd)
            assert not cold_result.cache["result_hit"]

            repeat_result, result_warm = _run_once(store_dir, mrd)
            assert repeat_result.cache["result_disk_hit"], \
                repeat_result.cache

            hdb = JobSpec(dataset=f"Normal100M3:{n_points}",
                          algorithm="hdbscan", k_pts=K_PTS)
            hdb_cold = artifact_warm = float("inf")
            for _ in range(HDBSCAN_RUNS):
                result, seconds = _run_on_copy(hdb)
                assert not result.cache["tree_hit"], result.cache
                hdb_cold = min(hdb_cold, seconds)
                result, seconds = _run_on_copy(hdb, store_dir)
                assert not result.cache["result_hit"], result.cache
                assert result.cache["tree_disk_hit"], result.cache
                assert result.cache["core_disk_hit"], result.cache
                artifact_warm = min(artifact_warm, seconds)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        by_size[str(n_points)] = {
            "cold_seconds": cold,
            "cold_hdbscan_seconds": hdb_cold,
            "restart_result_warm_seconds": result_warm,
            "restart_artifact_warm_seconds": artifact_warm,
            "result_warm_speedup": speedup(cold, result_warm),
            "artifact_warm_speedup": speedup(hdb_cold, artifact_warm),
        }
        rows.append([n_points, cold * 1e3, result_warm * 1e3,
                     hdb_cold * 1e3, artifact_warm * 1e3,
                     by_size[str(n_points)]["result_warm_speedup"],
                     by_size[str(n_points)]["artifact_warm_speedup"]])
    measurements = {"k_pts": K_PTS, "sizes": list(sizes),
                    "by_size": by_size}
    table = render_table(
        ["n", "cold ms", "restart repeat ms", "cold new-job ms",
         "restart new-job ms", "repeat speedup", "new-job speedup"], rows,
        title="Warm-restart value — each job cold vs a restarted engine "
              "over the same --store-dir (fresh process, disk tiers only; "
              "new job: hdbscan over the mrd_emst job's points)")
    save_report("bench_store.txt", table)
    return measurements, table


def save_json(measurements):
    """Write the measurements to ``reports/BENCH_store.json``."""
    payload = {"benchmark": "bench_store", "cpu_count": os.cpu_count(),
               **measurements}
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_store.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check(measurements):
    for stats in measurements["by_size"].values():
        # A restarted exact repeat must beat recompute comfortably: it
        # reads one blob instead of building a tree and running Borůvka.
        assert stats["result_warm_speedup"] >= 5.0, stats
        # Artifact warmth must at least not hurt the job it serves (it
        # skips two phases of a cold hdbscan but still pays the MST run
        # and the post-processing, so the bar is lower).
        assert stats["artifact_warm_speedup"] >= 1.0, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="problem sizes (points per job) to sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size and no perf assertions (CI smoke: "
                             "exercises the path, records the JSON)")
    args = parser.parse_args(argv)
    sizes = [1500] if args.smoke else args.sizes

    measurements, table = run(sizes=sizes)
    print(table)
    path = save_json(measurements)
    print(f"\nmeasurements written to {path}")
    if not args.smoke:
        _check(measurements)
        biggest = measurements["by_size"][str(max(map(int, sizes)))]
        print(f"ok: restarted repeat {biggest['result_warm_speedup']:.0f}x "
              f"faster than cold (>= 5x required); artifact-warm "
              f"{biggest['artifact_warm_speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
