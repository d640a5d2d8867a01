"""Traversal-kernel benchmark — the compiled engine vs the reference path.

Measures end-to-end EMST wall-clock (tree build + Borůvka solve) under:

* **old** — the paper's configuration on the NumPy ``reference``
  engine: single-pop lock-step traversal, NumPy LBVH build and round
  steps, adjacent-pairs bound scan, no warm frontier;
* **new** — the ``compiled`` engine (the C traversal, one query lane at
  a time, and the C LBVH build and round steps of ``steps.c``) under the
  production configuration: wide bound window, warm frontier;

on uniform 2D and 3D points, plus a **headline** old-vs-new run at the
acceptance size on uniform 2D, uniform 3D and clustered 3D (``Hacc37M``)
points.  Uniform trees are shallow; the clustered one is deep (height 59
at 10k points).

Every measured configuration is asserted *byte-identical* in canonical
payload form (:func:`repro.service.jobs.canonical_payload_bytes`) to the
old path — the engines must agree on every edge, weight and tie-break.

Everything is written to ``reports/BENCH_kernels.json`` (plus a rendered
table) so CI can archive the perf trajectory.  Runs standalone
(``python benchmarks/bench_kernels.py``, ``--smoke`` for CI sizes); with
enough cores the full run enforces one kernel-perf gate: the compiled
defaults must beat the reference path by >= 2.25x on the fixed N=20k
uniform-2D case.
"""

import argparse
import json
import os
import time

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.bvh import traversal_engine
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst
from repro.data import generate
from repro.metrics import speedup
from repro.service.jobs import canonical_payload_bytes, emst_result_to_dict

#: The paper's configuration on the reference engine (the "old" path).
OLD_CONFIG = SingleTreeConfig(warm_frontier=False, bound_window=1)

#: Kernel-perf gate: minimum speedup of the compiled defaults over the
#: old path on the fixed N=20k uniform-2D case (full runs on >= 2 cores).
GATE_SPEEDUP = 2.25
GATE_N = 20_000
#: Headline cases: (label, dataset).  The clustered 3D case is the input
#: family of the ``cold_emst`` perfbench workload.
HEADLINE_CASES = (("2d", "Uniform100M2"), ("3d", "Uniform100M3"),
                  ("3d_hacc", "Hacc37M"))


def _canonical(result) -> bytes:
    return canonical_payload_bytes(emst_result_to_dict(result))


def _time_emst(points, config, engine, *, reps=2):
    """Best-of-``reps`` wall seconds; returns (seconds, canonical bytes)."""
    best = float("inf")
    result = None
    with traversal_engine(engine):
        for _ in range(reps):
            started = time.perf_counter()
            result = emst(points, config=config)
            best = min(best, time.perf_counter() - started)
    return best, _canonical(result)


def run_ablation(n_points: int, reps: int = 2):
    """Old-vs-new over uniform 2D and 3D points."""
    measurements = {"n_points": n_points, "dimensions": {}}
    rows = []
    for dim, dataset in ((2, "Uniform100M2"), (3, "Uniform100M3")):
        points = generate(dataset, n_points, seed=0)
        old_s, old_bytes = _time_emst(points, OLD_CONFIG, "reference",
                                      reps=reps)
        new_s, new_bytes = _time_emst(points, SingleTreeConfig(),
                                      "compiled", reps=reps)
        assert new_bytes == old_bytes, \
            f"compiled result diverged from reference ({dim}D)"
        measurements["dimensions"][str(dim)] = {
            "old_seconds": old_s,
            "compiled_seconds": new_s,
            "speedup": speedup(old_s, new_s),
        }
        rows.append([f"{dim}D old (reference)", old_s * 1e3, 1.0])
        rows.append([f"{dim}D new (compiled)", new_s * 1e3,
                     speedup(old_s, new_s)])
    table = render_table(
        ["configuration", "emst ms", "speedup vs old"], rows,
        title=f"Traversal kernels — end-to-end EMST, uniform n={n_points}")
    save_report("bench_kernels.txt", table)
    return measurements, table


def run_headline(n_points: int = 50_000):
    """Old (reference) vs new (compiled) at the acceptance size: one
    repetition of the slow old path, best of two for the compiled one."""
    out = {"n_points": n_points, "cases": {}}
    for label, dataset in HEADLINE_CASES:
        points = generate(dataset, n_points, seed=0)
        old_s, old_bytes = _time_emst(points, OLD_CONFIG, "reference",
                                      reps=1)
        new_s, new_bytes = _time_emst(points, SingleTreeConfig(),
                                      "compiled", reps=2)
        assert new_bytes == old_bytes, f"headline diverged ({dataset})"
        out["cases"][label] = {
            "dataset": dataset, "old_seconds": old_s,
            "compiled_seconds": new_s, "speedup": speedup(old_s, new_s),
        }
    return out


def save_json(ablation, headline):
    payload = {
        "benchmark": "bench_kernels",
        "cpu_count": os.cpu_count(),
        "ablation": ablation,
        "headline": headline,
    }
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_kernels.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_gate(ablation):
    # Perf bars only bind when the host has real cores to measure on.
    cores = os.cpu_count() or 1
    if cores < 2:
        return
    got = ablation["dimensions"]["2"]["speedup"]
    assert got >= GATE_SPEEDUP, (
        f"kernel-perf gate: compiled defaults {got:.2f}x vs reference "
        f"on n={ablation['n_points']} uniform 2D, need >= {GATE_SPEEDUP}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-points", type=int, default=GATE_N,
                        help="points per EMST in the ablation sweep")
    parser.add_argument("--headline-points", type=int, default=50_000,
                        help="points for the old-vs-new headline run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertions (CI smoke: "
                             "exercises every path incl. the byte-identity "
                             "checks, records the JSON)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_points, args.headline_points = 4000, 8000

    ablation, table = run_ablation(args.n_points,
                                   reps=1 if args.smoke else 2)
    print(table)
    headline = run_headline(args.headline_points)
    path = save_json(ablation, headline)
    print(f"\nmeasurements written to {path}")
    for cell in headline["cases"].values():
        print(f"headline {cell['dataset']} n={headline['n_points']}: "
              f"reference {cell['old_seconds']:.2f}s -> compiled "
              f"{cell['compiled_seconds']:.2f}s ({cell['speedup']:.2f}x)")
    if not args.smoke:
        _check_gate(ablation)
        print(f"ok: kernel-perf gate passed (compiled >= {GATE_SPEEDUP}x "
              f"reference on n={args.n_points} uniform 2D)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
