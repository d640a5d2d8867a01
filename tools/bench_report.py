#!/usr/bin/env python
"""Aggregate every ``reports/BENCH_*.json`` into one trend summary.

Each benchmark driver writes its own machine-readable report; this tool
folds whatever subset exists into a single table so one CI artifact
answers "how did this build do" without opening five JSON files.  Known
benchmarks get curated headline rows (the numbers their gates are about:
obs overhead %, load peak throughput, kernel speedups, ...); anything
unrecognized falls back to its shallowest numeric leaves, so a new
``BENCH_foo.json`` shows up here the day it lands with no edit to this
file.

Outputs, next to the inputs:

* ``reports/BENCH_report.md``   — one markdown table per benchmark;
* ``reports/BENCH_report.json`` — the same rows, machine-readable.

With ``--baseline`` it instead prints the last row of the committed
``BENCH_trajectory.json``: for every workload and end-to-end metric of
``BENCHMARK.json``, the parent and change medians of the perfbench pairs
that row records, their relative delta, and a mark on any delta worse
than the metric's bound.  A row may also carry a ``kernels`` object,
``benchmarks/bench_kernels.py``'s headline from the change's full run
(``n_points`` and, per case, ``dataset``, ``old_seconds`` and
``compiled_seconds``); it is printed as a second table.  A malformed row
exits 1.  Neither file is written.

Usage::

    python tools/bench_report.py [--reports-dir reports]
    python tools/bench_report.py --baseline
"""

import argparse
import glob
import json
import os
import sys

#: Cap on fallback rows per benchmark, so a deeply nested report cannot
#: drown the table; curated extractors are exempt.
MAX_GENERIC_ROWS = 8

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


# --------------------------------------------------------------- extractors
#
# Each extractor maps one benchmark payload to [(metric, value), ...].
# They only .get() their way in — a missing key degrades to fewer rows,
# never a crash — and an extractor raising falls back to the generic walk.

def _headline_obs(payload):
    comparison = payload.get("comparison", {})
    return [
        ("overhead_pct", comparison.get("overhead_pct")),
        ("overhead_bound_pct", comparison.get("overhead_bound_pct")),
        ("pairs", comparison.get("pairs")),
        ("median_off_seconds", comparison.get("median_off_seconds")),
        ("median_on_seconds", comparison.get("median_on_seconds")),
        ("profiler_share_pct", comparison.get("profiler_share_pct")),
        ("profiler_samples", comparison.get("profiler_samples")),
        ("n_points", comparison.get("n_points")),
    ]


def _headline_load(payload):
    sweep = payload.get("sweep") or []
    rows = []
    if sweep:
        peak = max(sweep, key=lambda e: e.get(
            "throughput_jobs_per_sec", 0.0))
        rows += [
            ("peak_throughput_jobs_per_sec",
             peak.get("throughput_jobs_per_sec")),
            ("lightest_rate_p50_s", sweep[0].get("p50_s")),
            ("lightest_rate_p99_s", sweep[0].get("p99_s")),
            ("top_rate_shed_fraction", sweep[-1].get("shed_rate")),
        ]
    overload = payload.get("overload", {})
    if overload.get("burst"):
        rows.append(("overload_shed_fraction",
                     overload.get("shed", 0) / overload["burst"]))
    return rows


def _headline_kernels(payload):
    rows = []
    cases = payload.get("headline", {}).get("cases", {})
    for label in sorted(cases):
        rows.append((f"headline_speedup_{label}", cases[label].get("speedup")))
        rows.append((f"headline_old_seconds_{label}",
                     cases[label].get("old_seconds")))
        rows.append((f"headline_compiled_seconds_{label}",
                     cases[label].get("compiled_seconds")))
    return rows


def _headline_store(payload):
    by_size = payload.get("by_size", {})
    if not by_size:
        return []
    biggest = by_size[max(by_size, key=int)]
    return [(f"n{max(by_size, key=int)}_{key}", value)
            for key, value in sorted(biggest.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)]


def _headline_cluster(payload):
    by_fleet = payload.get("by_fleet", {})
    if not by_fleet:
        return []
    biggest = by_fleet[max(by_fleet, key=int)]
    return [(f"fleet{max(by_fleet, key=int)}_{key}", value)
            for key, value in sorted(biggest.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)]


HEADLINES = {
    "bench_obs": _headline_obs,
    "bench_load": _headline_load,
    "bench_kernels": _headline_kernels,
    "bench_store": _headline_store,
    "bench_cluster": _headline_cluster,
}

#: Bookkeeping keys the generic walk skips — present in every report and
#: never a trend signal.
_SKIP_KEYS = ("cpu_count", "seed")


def _numeric_leaves(payload, prefix="", depth=0):
    """Depth-first ``(dotted.path, value)`` pairs, shallowest first."""
    if depth > 3:
        return
    for key in sorted(payload):
        if depth == 0 and key in _SKIP_KEYS:
            continue
        value = payload[key]
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            yield path, value
        elif isinstance(value, dict):
            yield from _numeric_leaves(value, f"{path}.", depth + 1)


def extract_rows(payload):
    """Headline ``(metric, value)`` rows for one benchmark payload."""
    extractor = HEADLINES.get(payload.get("benchmark"))
    if extractor is not None:
        try:
            rows = [(metric, value) for metric, value in extractor(payload)
                    if value is not None]
            if rows:
                return rows, "curated"
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            pass  # malformed report: the generic walk still says something
    generic = sorted(_numeric_leaves(payload),
                     key=lambda item: (item[0].count("."), item[0]))
    return generic[:MAX_GENERIC_ROWS], "generic"


def _fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value)) if isinstance(value, float) else str(value)


def build_report(reports_dir):
    """All ``BENCH_*.json`` under ``reports_dir`` folded into one doc."""
    paths = sorted(glob.glob(os.path.join(reports_dir, "BENCH_*.json")))
    paths = [p for p in paths
             if os.path.basename(p) != "BENCH_report.json"]
    benchmarks, skipped = {}, []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            skipped.append({"file": os.path.basename(path),
                            "error": str(exc)})
            continue
        name = payload.get("benchmark") or \
            os.path.basename(path)[len("BENCH_"):-len(".json")]
        rows, source = extract_rows(payload)
        benchmarks[name] = {
            "file": os.path.basename(path),
            "cpu_count": payload.get("cpu_count"),
            "source": source,
            "headlines": {metric: value for metric, value in rows},
        }
    return {"reports_dir": os.path.abspath(reports_dir),
            "benchmarks": benchmarks, "skipped": skipped}


def render_markdown(report):
    lines = ["# Benchmark trend summary", ""]
    if not report["benchmarks"]:
        lines.append("_No BENCH_*.json reports found._")
        return "\n".join(lines) + "\n"
    for name, entry in sorted(report["benchmarks"].items()):
        suffix = " (generic rows)" if entry["source"] == "generic" else ""
        lines += [f"## {name}{suffix}", "",
                  f"`{entry['file']}`, cpu_count={entry['cpu_count']}", "",
                  "| metric | value |", "| --- | ---: |"]
        lines += [f"| {metric} | {_fmt(value)} |"
                  for metric, value in entry["headlines"].items()]
        lines.append("")
    for skip in report["skipped"]:
        lines.append(f"_skipped {skip['file']}: {skip['error']}_")
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------- trajectory

def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def baseline_deltas(rows, benchmark):
    """``(row, lines)`` for the last trajectory row.

    Each line is ``(workload, metric, unit, pairs, parent, change, delta,
    beyond)``: ``delta`` is ``change / parent - 1`` and ``beyond`` is true
    when the change is worse than the parent by more than the metric's
    bound.  A malformed row raises ``ValueError``, ``LookupError`` or
    ``TypeError``.
    """
    row = rows[-1]
    if not isinstance(row["pr"], int) or not isinstance(row["parent"], str):
        raise ValueError("'pr' must be an integer and 'parent' a commit id")
    _number(row["run_seconds"], "'run_seconds'")
    lines = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry = row["workloads"][workload]
        pairs = entry["pairs"]
        if not isinstance(pairs, int) or pairs < 1:
            raise ValueError(f"{workload}: 'pairs' must be a count >= 1")
        for spec in benchmark["end_to_end"]:
            name, at = spec["name"], f"{workload}.{spec['name']}"
            metric = entry["metrics"][name]
            if metric["unit"] != spec["unit"]:
                raise ValueError(f"{at}: unit {metric['unit']!r}, "
                                 f"BENCHMARK.json says {spec['unit']!r}")
            parent = _number(metric["parent"], f"{at}.parent")
            change = _number(metric["change"], f"{at}.change")
            if parent:
                delta = change / parent - 1.0
            else:
                delta = 0.0 if change == parent else float("inf")
            worse = delta if spec["better"] == "lower" else -delta
            lines.append((workload, name, spec["unit"], pairs, parent,
                          change, delta, worse > spec["bound"]))
    return row, lines


def kernel_headline(row):
    """``(n_points, [(case, dataset, old_seconds, compiled_seconds)])``
    of the row's optional ``kernels`` object, or ``None`` without one.
    A malformed object raises like :func:`baseline_deltas`."""
    if "kernels" not in row:
        return None
    kernels = row["kernels"]
    n_points = kernels["n_points"]
    if not isinstance(n_points, int) or n_points < 1:
        raise ValueError("kernels: 'n_points' must be a count >= 1")
    if not kernels["cases"]:
        raise ValueError("kernels: 'cases' is empty")
    cases = []
    for label in sorted(kernels["cases"]):
        case = kernels["cases"][label]
        if not isinstance(case["dataset"], str):
            raise ValueError(f"kernels.{label}: 'dataset' must be a name")
        seconds = [_number(case[key], f"kernels.{label}.{key}")
                   for key in ("old_seconds", "compiled_seconds")]
        if min(seconds) <= 0:
            raise ValueError(f"kernels.{label}: seconds must be positive")
        cases.append((label, case["dataset"], *seconds))
    return n_points, cases


def render_baseline(row, lines, kernels=None):
    out = [f"# Last trajectory row: PR {row['pr']} against parent "
           f"{row['parent'][:12]}, {_fmt(row['run_seconds'])}-s runs", "",
           "| workload | metric | pairs | parent | change | delta | |",
           "| --- | --- | ---: | ---: | ---: | ---: | --- |"]
    for workload, name, unit, pairs, parent, change, delta, beyond in lines:
        mark = "worse than its bound" if beyond else ""
        out.append(f"| {workload} | {name} ({unit}) | {pairs} | "
                   f"{_fmt(parent)} | {_fmt(change)} | {delta:+.1%} | "
                   f"{mark} |")
    if kernels is not None:
        n_points, cases = kernels
        out += ["", f"bench_kernels.py headline, n={n_points}, one run of "
                "the change:", "",
                "| case | dataset | old (s) | compiled (s) | speedup |",
                "| --- | --- | ---: | ---: | ---: |"]
        for label, dataset, old, new in cases:
            out.append(f"| {label} | {dataset} | {_fmt(old)} | "
                       f"{_fmt(new)} | {old / new:.2f}x |")
    return "\n".join(out) + "\n"


def print_baseline(trajectory_path, benchmark_path):
    """Print the last row's deltas; 0 when it is well formed, else 1."""
    try:
        with open(trajectory_path, encoding="utf-8") as fh:
            rows = json.load(fh)
        with open(benchmark_path, encoding="utf-8") as fh:
            benchmark = json.load(fh)
        row, lines = baseline_deltas(rows, benchmark)
        kernels = kernel_headline(row)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        # JSONDecodeError is a ValueError; a missing key or an empty list
        # is a LookupError; a wrong container type is a TypeError.
        print(f"error: malformed {trajectory_path}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(render_baseline(row, lines, kernels))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reports-dir", default="reports",
                        help="directory holding the BENCH_*.json inputs "
                             "(outputs land beside them)")
    parser.add_argument("--baseline", action="store_true",
                        help="print the last BENCH_trajectory.json row's "
                             "parent -> change deltas instead")
    args = parser.parse_args(argv)
    if args.baseline:
        return print_baseline(TRAJECTORY, BENCHMARK)
    if not os.path.isdir(args.reports_dir):
        print(f"note: no reports directory at {args.reports_dir!r}; "
              f"nothing to aggregate")
        return 0

    report = build_report(args.reports_dir)
    markdown = render_markdown(report)
    md_path = os.path.join(args.reports_dir, "BENCH_report.md")
    json_path = os.path.join(args.reports_dir, "BENCH_report.json")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(markdown)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(markdown)
    print(f"trend summary written to {md_path} and {json_path} "
          f"({len(report['benchmarks'])} benchmark(s), "
          f"{len(report['skipped'])} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
