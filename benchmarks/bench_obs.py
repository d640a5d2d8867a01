"""Observability overhead benchmark — instrumented vs ``REPRO_OBS=off``.

Drives the same mixed serving workload (emst / mrd_emst / hdbscan over
the fixed N=20k uniform-2D set, plus exact repeats so the cache tiers
and trace replay paths fire) through two engines that differ only in
observability: one with the metrics registry, histograms and per-job
span building enabled, one with the whole layer disabled.

The estimator: ``--pairs`` off/on pairs (>= 15), the order alternating
pair by pair (off first, then on first) so drift within a pair cancels
across pairs.  A run's cost is its wall time per second its jobs spent
in the phases that are pure functions of the job: ``resolve``,
``tree_build``, ``compute`` and ``encode``.  No observability code runs
inside them, so the ratio cancels the host's speed, which drifts by
10-15% from one run to the next, and nothing the instrumentation does
cancels with it: the cache tiers' counters, the phase metrics, the span
tree, the trace-archive offer and any wait between jobs fall outside
those phases and count in full.  The profiler's thread can also stall
the worker inside them, so its own sampling time is added to the
instrumented run's wall, as if none of it overlapped.  Each pair gives
the ratio on/off, and the gate binds on a distribution-free one-sided
95% upper confidence bound of the median ratio: the ``u``-th smallest
ratio, ``u`` the least with ``P(Binomial(pairs, 1/2) >= u) <= 0.05``.
Plain wall and process CPU time ratios are recorded too; on a host
whose speed drifts like this their pairs spread by +-10%, and neither a
best-of-N nor 15 such pairs can resolve 3%.

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
* with >= 2 cores and a full (non ``--smoke``) run, the upper bound of
  the instrumentation's median cost is **< 3%** — the observability
  acceptance gate.

Everything lands in ``reports/BENCH_obs.json`` for CI to archive, plus
a collapsed-stack profile of the final instrumented run in
``reports/PROFILE_obs.collapsed`` (flamegraph.pl / speedscope input).
Runs standalone (``python benchmarks/bench_obs.py``, ``--smoke`` for CI
sizes without the perf assertion).
"""

import argparse
import json
import os
import statistics
import tempfile
import time
from math import comb

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.obs import render_collapsed
from repro.service import Engine, JobSpec, canonical_payload_bytes

#: The job phases that are pure functions of the job: the instrumented
#: and disabled engines run the same code in them.
PURE_PHASES = ("resolve", "tree_build", "compute", "encode")

#: Observability gate: the most the instrumented engine may cost over
#: the disabled one on the fixed N=20k workload, as the upper confidence
#: bound of the median paired cost ratio.
GATE_OVERHEAD_PCT = 3.0
GATE_N = 20_000
GATE_PAIRS = 15
GATE_CONFIDENCE = 0.95


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
        started, cpu_started = time.perf_counter(), time.process_time()
        job_ids = [engine.submit(JobSpec.from_dict(body))
                   for body in bodies]
        results = [engine.result(job_id, timeout=600.0)
                   for job_id in job_ids]
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        archive = engine.trace_archive.stats() if engine.trace_archive \
            else None
        prof = engine.profiler.stats() if engine.profiler else None
        collapsed = render_collapsed(engine.profile()) \
            if engine.profiler else None
    for result in results:
        assert result.status.value == "done", result.error
    pure_seconds = sum(result.timings.get(phase, 0.0)
                       for result in results for phase in PURE_PHASES)
    sampling = prof["sampling_seconds"] if prof else 0.0
    return {
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "pure_seconds": pure_seconds,
        "cost": (wall + sampling) / pure_seconds,
        "bytes": [canonical_payload_bytes(r.payload) for r in results],
        "traced": sum(r.trace is not None for r in results),
        "archive_offered": archive["offered"] if archive else 0,
        "profiler_samples": prof["samples_total"] if prof else 0,
        "profiler_sampling_seconds": sampling,
        "profiler_hz": prof["hz"] if prof else 0.0,
        "collapsed": collapsed,
    }


def median_upper_bound(values, confidence=GATE_CONFIDENCE):
    """Distribution-free one-sided upper confidence bound of the median
    of ``values``: the ``u``-th smallest, ``u`` the least with
    ``P(Binomial(n, 1/2) >= u) <= 1 - confidence`` (the sign test)."""
    n = len(values)
    for u in range(1, n + 1):
        if sum(comb(n, k) for k in range(u, n + 1)) / 2 ** n \
                <= 1.0 - confidence:
            return sorted(values)[u - 1]
    raise ValueError(f"{n} pairs cannot bound the median at "
                     f"{confidence:.0%} confidence")


def run_comparison(n_points, pairs):
    """Order-balanced off/on pairs; the median paired ratio and its bound.

    Returns ``(comparison, collapsed)``: the measurement dict plus the
    collapsed-stack profile of the last instrumented run.
    """
    off_runs, on_runs, profiler_shares = [], [], []
    profiler_samples = 0
    profiler_hz = 0.0
    collapsed = None
    reference = None
    for pair in range(pairs):
        order = (False, True) if pair % 2 == 0 else (True, False)
        runs = {obs: _run_workload(obs, n_points) for obs in order}
        off, on = runs[False], runs[True]
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
        off_runs.append(off)
        on_runs.append(on)
        profiler_shares.append(on["profiler_sampling_seconds"]
                               / on["wall_seconds"] * 100.0)
        profiler_samples += on["profiler_samples"]
        profiler_hz = on["profiler_hz"]
        collapsed = on["collapsed"]

    def ratios(key):
        return [on[key] / off[key] for off, on in zip(off_runs, on_runs)]

    cost_ratios = ratios("cost")
    wall_ratios, cpu_ratios = ratios("wall_seconds"), ratios("cpu_seconds")
    comparison = {
        "n_points": n_points,
        "jobs_per_run": len(_workload(n_points)),
        "pairs": pairs,
        "estimator": "median paired ratio of wall (plus profiler sampling)"
                     " per second of the jobs' pure phases, order-balanced",
        "confidence": GATE_CONFIDENCE,
        "off_wall_seconds": [run["wall_seconds"] for run in off_runs],
        "on_wall_seconds": [run["wall_seconds"] for run in on_runs],
        "off_pure_seconds": [run["pure_seconds"] for run in off_runs],
        "on_pure_seconds": [run["pure_seconds"] for run in on_runs],
        "off_cpu_seconds": [run["cpu_seconds"] for run in off_runs],
        "on_cpu_seconds": [run["cpu_seconds"] for run in on_runs],
        "cost_ratios": cost_ratios,
        "wall_ratios": wall_ratios,
        "cpu_ratios": cpu_ratios,
        "overhead_pct": (statistics.median(cost_ratios) - 1.0) * 100.0,
        "overhead_bound_pct": (median_upper_bound(cost_ratios) - 1.0)
        * 100.0,
        "wall_overhead_pct": (statistics.median(wall_ratios) - 1.0) * 100.0,
        "cpu_overhead_pct": (statistics.median(cpu_ratios) - 1.0) * 100.0,
        "median_off_seconds": statistics.median(
            run["wall_seconds"] for run in off_runs),
        "median_on_seconds": statistics.median(
            run["wall_seconds"] for run in on_runs),
        "profiler_hz": profiler_hz,
        "profiler_samples": profiler_samples,
        # Worst run: the profiler's own stack-walk time as a share of
        # end-to-end wall.  Informational — it is already added to the
        # instrumented costs the gate binds on.
        "profiler_share_pct": max(profiler_shares),
        "profiler_shares_pct": profiler_shares,
    }
    return comparison, collapsed


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
              f"(bound {comparison['overhead_bound_pct']:+.2f}%, "
              f"budget < {GATE_OVERHEAD_PCT}%)")
        return False
    bound = comparison["overhead_bound_pct"]
    assert bound < GATE_OVERHEAD_PCT, (
        "observability gate: instrumentation costs "
        f"{comparison['overhead_pct']:+.2f}% (median of "
        f"{comparison['pairs']} pairs, {comparison['confidence']:.0%} "
        f"upper bound {bound:+.2f}%) on the n={comparison['n_points']} "
        f"workload, budget is < {GATE_OVERHEAD_PCT}%")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-points", type=int, default=GATE_N,
                        help="points per job in the serving workload")
    parser.add_argument("--pairs", type=int, default=GATE_PAIRS,
                        help="order-balanced off/on pairs "
                             f"(>= {GATE_PAIRS} for the gate)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertion (CI smoke: "
                             "still checks byte identity and trace "
                             "presence, records the JSON)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_points, args.pairs = 4000, 5
    elif args.pairs < GATE_PAIRS:
        parser.error(f"the gate needs --pairs >= {GATE_PAIRS}")

    comparison, collapsed = run_comparison(args.n_points, args.pairs)
    table = render_table(
        ["mode", "median wall s", "median pure s", "overhead %",
         "95% bound %"],
        [["REPRO_OBS=off", comparison["median_off_seconds"],
          statistics.median(comparison["off_pure_seconds"]), 0.0, 0.0],
         ["instrumented", comparison["median_on_seconds"],
          statistics.median(comparison["on_pure_seconds"]),
          comparison["overhead_pct"], comparison["overhead_bound_pct"]]],
        title=f"Observability overhead — {comparison['jobs_per_run']} "
              f"jobs, n={comparison['n_points']}, "
              f"{comparison['pairs']} pairs")
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
    print(f"overhead: median cost ratio {comparison['overhead_pct']:+.2f}%,"
          f" {comparison['confidence']:.0%} upper bound "
          f"{comparison['overhead_bound_pct']:+.2f}% over "
          f"{comparison['pairs']} pairs (plain wall "
          f"{comparison['wall_overhead_pct']:+.2f}%, process CPU "
          f"{comparison['cpu_overhead_pct']:+.2f}%)")
    print(f"profiler: {comparison['profiler_samples']} samples at "
          f"{comparison['profiler_hz']:g} Hz, worst-run stack-walk share "
          f"{comparison['profiler_share_pct']:.3f}% of wall")
    if not args.smoke and _check_gate(comparison):
        print(f"ok: observability gate passed "
              f"(< {GATE_OVERHEAD_PCT}% on n={args.n_points})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
