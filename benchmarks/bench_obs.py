"""Observability overhead benchmark — instrumented vs ``REPRO_OBS=off``.

Drives the same mixed serving workload (emst / mrd_emst / hdbscan over
the fixed N=20k uniform-2D set, plus exact repeats so the cache tiers
and trace replay paths fire) through two engines that differ only in
observability: one with the metrics registry, histograms and per-job
span building enabled, one with the whole layer disabled.  Modes
alternate within each repetition so thermal/cache drift cancels, and
the best-of-``reps`` walls are compared.

Asserted invariants:

* payloads are **byte-identical** across modes (tracing must never touch
  the canonical result) and the instrumented run actually produced
  traces while the disabled run produced none;
* the instrumented engine offered every job to the tail-sampling trace
  archive (both modes run over a store dir, so blob I/O is symmetric
  and the archive's disk writes are priced into the gate);
* the instrumented engine's always-on sampling profiler (default rate)
  actually collected samples while the disabled engine collected none —
  so the continuous-profiling cost is priced into the same gate, and
  the measured profiler share of wall time lands in the JSON report;
* with >= 2 cores and a full (non ``--smoke``) run, instrumentation
  costs **< 3%** end-to-end wall — the observability acceptance gate.

Everything lands in ``reports/BENCH_obs.json`` for CI to archive, plus
a collapsed-stack profile of the final instrumented run in
``reports/PROFILE_obs.collapsed`` (flamegraph.pl / speedscope input).
Runs standalone (``python benchmarks/bench_obs.py``, ``--smoke`` for CI
sizes without the perf assertion).
"""

import argparse
import json
import os
import tempfile
import time

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.obs import render_collapsed
from repro.service import Engine, JobSpec, canonical_payload_bytes

#: Observability gate: maximum wall-clock overhead of the instrumented
#: engine over the disabled one on the fixed N=20k workload.
GATE_OVERHEAD_PCT = 3.0
GATE_N = 20_000


def _workload(n_points):
    """Mixed specs incl. exact repeats (cache hits + replayed phases)."""
    base = [
        {"dataset": f"Uniform100M2:{n_points}", "algorithm": "emst"},
        {"dataset": f"Uniform100M2:{n_points}", "algorithm": "mrd_emst",
         "k_pts": 4},
        {"dataset": f"Uniform100M2:{n_points}", "algorithm": "hdbscan",
         "k_pts": 4},
    ]
    return base + base  # the second pass rides the warm tiers


def _run_workload(obs, n_points):
    """One cold engine driven through the workload; returns its report.

    Both modes get a fresh store dir so blob I/O is symmetric — the only
    obs-mode extra on disk is the trace archive itself, which is exactly
    the write path the overhead gate must price in.
    """
    bodies = _workload(n_points)
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as store_dir, \
            Engine(max_workers=1, obs=obs, store_dir=store_dir) as engine:
        started = time.perf_counter()
        job_ids = [engine.submit(JobSpec.from_dict(body))
                   for body in bodies]
        results = [engine.result(job_id, timeout=600.0)
                   for job_id in job_ids]
        wall = time.perf_counter() - started
        archive = engine.trace_archive.stats() if engine.trace_archive \
            else None
        prof = engine.profiler.stats() if engine.profiler else None
        collapsed = render_collapsed(engine.profile()) \
            if engine.profiler else None
    for result in results:
        assert result.status.value == "done", result.error
    return {
        "wall_seconds": wall,
        "bytes": [canonical_payload_bytes(r.payload) for r in results],
        "traced": sum(r.trace is not None for r in results),
        "archive_offered": archive["offered"] if archive else 0,
        "profiler_samples": prof["samples_total"] if prof else 0,
        "profiler_sampling_seconds":
            prof["sampling_seconds"] if prof else 0.0,
        "profiler_hz": prof["hz"] if prof else 0.0,
        "collapsed": collapsed,
    }


def run_comparison(n_points, reps):
    """Alternating off/on repetitions; best-of walls and overhead pct.

    Returns ``(comparison, collapsed)``: the measurement dict plus the
    collapsed-stack profile of the last instrumented repetition.
    """
    off_walls, on_walls, profiler_shares = [], [], []
    profiler_samples = 0
    profiler_hz = 0.0
    collapsed = None
    reference = None
    for _ in range(reps):
        off = _run_workload(False, n_points)
        on = _run_workload(True, n_points)
        assert off["traced"] == 0, "REPRO_OBS=off engine produced traces"
        assert on["traced"] == len(_workload(n_points)), \
            "instrumented engine dropped traces"
        assert on["archive_offered"] == len(_workload(n_points)), \
            "instrumented engine skipped the trace-archive offer path"
        assert off["archive_offered"] == 0, \
            "REPRO_OBS=off engine ran the trace archive"
        assert on["profiler_samples"] > 0, \
            "instrumented engine's sampling profiler never fired"
        assert off["profiler_samples"] == 0, \
            "REPRO_OBS=off engine ran the sampling profiler"
        assert on["bytes"] == off["bytes"], \
            "instrumentation changed canonical payload bytes"
        reference = reference or off["bytes"]
        assert off["bytes"] == reference, "run-to-run bytes diverged"
        off_walls.append(off["wall_seconds"])
        on_walls.append(on["wall_seconds"])
        profiler_shares.append(on["profiler_sampling_seconds"]
                               / on["wall_seconds"] * 100.0)
        profiler_samples += on["profiler_samples"]
        profiler_hz = on["profiler_hz"]
        collapsed = on["collapsed"]
    best_off, best_on = min(off_walls), min(on_walls)
    overhead_pct = (best_on - best_off) / best_off * 100.0
    return {
        "n_points": n_points,
        "jobs_per_rep": len(_workload(n_points)),
        "reps": reps,
        "off_wall_seconds": off_walls,
        "on_wall_seconds": on_walls,
        "best_off_seconds": best_off,
        "best_on_seconds": best_on,
        "overhead_pct": overhead_pct,
        "profiler_hz": profiler_hz,
        "profiler_samples": profiler_samples,
        # Worst repetition: the profiler's own stack-walk time as a share
        # of end-to-end wall.  Informational — its cost is already inside
        # overhead_pct, which is what the gate binds on.
        "profiler_share_pct": max(profiler_shares),
        "profiler_shares_pct": profiler_shares,
    }, collapsed


def save_json(comparison):
    payload = {
        "benchmark": "bench_obs",
        "cpu_count": os.cpu_count(),
        "gate_overhead_pct": GATE_OVERHEAD_PCT,
        "comparison": comparison,
    }
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_obs.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_gate(comparison):
    # Perf bars only bind on hosts with real cores, like the other gates.
    cores = os.cpu_count() or 1
    if cores < 2:
        print(f"note: observability gate skipped on a {cores}-core host "
              f"(measured {comparison['overhead_pct']:+.2f}%, "
              f"budget < {GATE_OVERHEAD_PCT}%)")
        return False
    got = comparison["overhead_pct"]
    assert got < GATE_OVERHEAD_PCT, (
        f"observability gate: instrumentation costs {got:.2f}% on the "
        f"n={comparison['n_points']} workload, budget is "
        f"< {GATE_OVERHEAD_PCT}%")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-points", type=int, default=GATE_N,
                        help="points per job in the serving workload")
    parser.add_argument("--reps", type=int, default=5,
                        help="alternating off/on repetitions (best-of)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertion (CI smoke: "
                             "still checks byte identity and trace "
                             "presence, records the JSON)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_points, args.reps = 4000, 1

    comparison, collapsed = run_comparison(args.n_points, args.reps)
    table = render_table(
        ["mode", "best wall s", "overhead %"],
        [["REPRO_OBS=off", comparison["best_off_seconds"], 0.0],
         ["instrumented", comparison["best_on_seconds"],
          comparison["overhead_pct"]]],
        title=f"Observability overhead — {comparison['jobs_per_rep']} jobs, "
              f"n={comparison['n_points']}")
    print(table)
    save_report("bench_obs.txt", table)
    path = save_json(comparison)
    if collapsed:
        profile_path = os.path.join(os.path.abspath(REPORTS_DIR),
                                    "PROFILE_obs.collapsed")
        with open(profile_path, "w", encoding="utf-8") as fh:
            fh.write(collapsed)
        print(f"collapsed profile written to {profile_path} "
              f"({len(collapsed.splitlines())} stacks)")
    print(f"\nmeasurements written to {path}")
    print(f"overhead: {comparison['overhead_pct']:+.2f}% "
          f"({comparison['best_off_seconds']:.3f}s -> "
          f"{comparison['best_on_seconds']:.3f}s)")
    print(f"profiler: {comparison['profiler_samples']} samples at "
          f"{comparison['profiler_hz']:g} Hz, worst-rep stack-walk share "
          f"{comparison['profiler_share_pct']:.3f}% of wall")
    if not args.smoke and _check_gate(comparison):
        print(f"ok: observability gate passed "
              f"(< {GATE_OVERHEAD_PCT}% on n={args.n_points})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
