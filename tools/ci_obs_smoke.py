#!/usr/bin/env python
"""CI smoke check for the observability surface (repro.obs).

Boots a real ``repro serve`` subprocess, drives a small mixed workload
through it (including an exact repeat, so the cache tiers fire), then
asserts the scrape surface holds what ISSUE/README promise:

* ``GET /v1/metrics`` returns Prometheus text that a strict parser
  accepts, with computable quantiles (p50/p99 from the job-latency
  buckets), per-tier cache lookup counters, and per-phase timing series;
* ``GET /v1/metrics?format=json`` carries the same registry document,
  cross-checked against the text form (completed-job counts agree);
* every finished job's ``GET /v1/jobs/<id>`` body carries a span tree
  whose ``executed`` span holds the work-model counter totals, and the
  trace never leaks into the canonical payload bytes;
* a 2-second ``GET /v1/profile`` capture taken *while the workload
  runs* holds samples attributed to a traversal-phase frame, and its
  collapsed form lands on disk for CI to archive.

Usage::

    python tools/ci_obs_smoke.py --port 8423 --dataset Uniform100M2:10000
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.bvh import traversal_engine
from repro.obs import (
    histogram_from_sample,
    parse_prometheus_text,
    render_collapsed,
)
from repro.service import JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec

#: Engine phases that walk the spatial tree — the profiler must see the
#: traversal itself, not just bookkeeping around it.
TRAVERSAL_PHASES = frozenset({"tree", "tree_build", "core", "mst",
                              "compute"})


def _request(url, data=None, timeout=90, raw=False):
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        body = resp.read()
        return body.decode() if raw else json.loads(body)


def _await_job(base, body, timeout):
    job_id = _request(f"{base}/v1/jobs",
                      json.dumps(body).encode())["job_id"]
    deadline = time.monotonic() + timeout
    while True:
        chunk = max(0.0, min(deadline - time.monotonic(), 30.0))
        result = _request(f"{base}/v1/jobs/{job_id}?wait={chunk:.1f}")
        if result.get("status") in ("done", "failed"):
            return result
        if time.monotonic() >= deadline:
            raise SystemExit(f"FAIL: job {job_id} still "
                             f"{result.get('status')} after {timeout}s")


def _span(trace, name):
    """The first top-level span of ``trace`` called ``name``."""
    return next(span for span in trace["spans"] if span["name"] == name)


def _start_server(port):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    base = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: server exited early "
                             f"(code {proc.returncode})")
        try:
            _request(f"{base}/v1/healthz", timeout=5)
            return proc, base
        except (urllib.error.URLError, OSError):
            time.sleep(0.25)
    proc.kill()
    raise SystemExit("FAIL: server never became healthy")


def check_obs_surface(args):
    proc, base = _start_server(args.port)
    try:
        specs = [
            {"dataset": args.dataset, "algorithm": "emst"},
            {"dataset": args.dataset, "algorithm": "mrd_emst", "k_pts": 4},
            {"dataset": args.dataset, "algorithm": "hdbscan", "k_pts": 4},
            {"dataset": args.dataset, "algorithm": "emst"},  # result hit
        ]
        # Burst-capture a profile concurrently with the workload, so the
        # samples land while the engine is actually traversing.
        profile_box = {}

        def _capture_profile():
            try:
                profile_box["doc"] = _request(
                    f"{base}/v1/profile?seconds=2&hz=97&format=json",
                    timeout=90)
            except Exception as exc:  # re-raised on the main thread
                profile_box["error"] = exc

        capture = threading.Thread(target=_capture_profile,
                                   name="profile-capture")
        capture.start()
        results = [_await_job(base, body, args.timeout) for body in specs]
        capture.join(timeout=90)
        for body, result in zip(specs, results):
            assert result["status"] == "done", result.get("error")
        assert results[-1]["cache"]["result_hit"], results[-1]["cache"]

        # --- traces ride on every result, outside the canonical payload.
        for result in results:
            trace = result.get("trace")
            assert trace and trace["trace_id"].startswith("tr-"), result
            names = [span["name"] for span in trace["spans"]]
            assert names == ["submit", "queued", "executed", "served"], names
            executed = _span(trace, "executed")
            assert executed["meta"]["counters"]["scalar_ops"] > 0
        with traversal_engine("reference"):
            outcome = execute_spec(make_exec_spec(JobSpec.from_dict(
                specs[0])))
        reference = canonical_payload_bytes(outcome["payload"])
        assert canonical_payload_bytes(results[0]["payload"]) == reference, \
            "FAIL: traced payload diverges from in-process reference"
        replayed = _span(results[-1]["trace"], "executed")["children"]
        assert all(child["meta"].get("replayed") for child in replayed), \
            "FAIL: result-hit repeat must mark its phases as replayed"

        # --- Prometheus text form: parseable, quantiles computable.
        text = _request(f"{base}/v1/metrics", raw=True)
        parsed = parse_prometheus_text(text)
        completed = parsed["repro_jobs_completed_total"][0][1]
        assert completed == len(specs), parsed["repro_jobs_completed_total"]
        buckets = [(labels, value) for labels, value
                   in parsed["repro_job_seconds_bucket"]
                   if labels.get("algorithm") == "emst"]
        assert buckets and buckets[-1][0]["le"] == "+Inf"
        assert buckets[-1][1] == 2.0  # two emst jobs observed
        lookups = {(labels["tier"], labels["level"], labels["outcome"]): v
                   for labels, v in parsed["repro_cache_lookups_total"]}
        assert lookups[("result", "memory", "hit")] >= 1, lookups
        assert lookups[("tree", "memory", "miss")] >= 1, lookups
        phases = {labels["phase"] for labels, _
                  in parsed["repro_phase_seconds_count"]}
        assert "mst" in phases, phases
        endpoints = {labels["endpoint"] for labels, _
                     in parsed["repro_http_requests_total"]}
        assert {"/v1/jobs", "/v1/jobs/{id}"} <= endpoints, endpoints

        # --- JSON form cross-checks the text form.
        doc = _request(f"{base}/v1/metrics?format=json")
        by_name = {m["name"]: m for m in doc["metrics"]}
        json_completed = by_name["repro_jobs_completed_total"][
            "samples"][0]["value"]
        assert json_completed == completed, (json_completed, completed)
        sample = [s for s in by_name["repro_job_seconds"]["samples"]
                  if s["labels"] == {"algorithm": "emst"}][0]
        hist = histogram_from_sample(sample)
        p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
        assert 0.0 < p50 <= p99, (p50, p99)

        # --- the in-flight profile capture saw the traversal itself.
        assert "error" not in profile_box, \
            f"FAIL: /v1/profile capture failed: {profile_box['error']}"
        profile = profile_box.get("doc")
        assert profile and profile.get("enabled"), profile
        assert profile.get("samples", 0) > 0, \
            "FAIL: 2s capture during the workload collected no samples"
        traversal = sum(count for phase, count
                        in (profile.get("phases") or {}).items()
                        if phase in TRAVERSAL_PHASES)
        assert traversal >= 1, (
            f"FAIL: no sample attributed to a traversal phase "
            f"({sorted(TRAVERSAL_PHASES)}); saw {profile.get('phases')}")
        if args.profile_out:
            os.makedirs(os.path.dirname(os.path.abspath(args.profile_out)),
                        exist_ok=True)
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                fh.write(render_collapsed(profile))

        print(f"ok: observability surface verified "
              f"(dataset={args.dataset})\n"
              f"  {int(completed)} jobs traced; emst latency "
              f"p50={p50 * 1e3:.1f}ms p99={p99 * 1e3:.1f}ms\n"
              f"  cache lookups: result/memory hit x"
              f"{int(lookups[('result', 'memory', 'hit')])}; "
              f"phase series: {', '.join(sorted(phases))}\n"
              f"  traced payload byte-identical to in-process reference\n"
              f"  profile: {profile['samples']} samples, {traversal} in "
              f"traversal phases"
              + (f" -> {args.profile_out}" if args.profile_out else ""))
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, default=8423)
    parser.add_argument("--dataset", default="Uniform100M2:10000")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--profile-out",
                        default="reports/PROFILE_smoke.collapsed",
                        help="write the captured collapsed-stack profile "
                             "here (empty string disables)")
    args = parser.parse_args(argv)
    return check_obs_surface(args)


if __name__ == "__main__":
    sys.exit(main())
