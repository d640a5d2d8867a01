#!/usr/bin/env python
"""CI smoke check: a served job must byte-match in-process execution.

Default mode submits a deterministic dataset job to a running
``repro serve`` instance over HTTP, recomputes the same job in-process
on the reference traversal engine through the pure executor
(:func:`repro.service.executor.execute_spec`), and asserts the two
payloads are byte-identical in canonical form (wall-clock ``phases``
stripped — see :func:`repro.service.jobs.canonical_payload_bytes`).  The
canonical SHA-256 is printed so runs' logs can also be compared
directly.

``--restart-warmth`` instead runs the persistence acceptance path
end-to-end: it starts its *own* server with ``--store-dir``, submits a
job, checks that the store holds the job's tree as its sort order alone
(one ``tree`` artifact of at most 8 bytes per point plus 4 KiB), **kills
the server** (SIGKILL — a crash, not a drain), starts a new one over the
same store, and asserts that

* the exact-repeat job is answered from the **disk result tier**
  (``result_disk_hit``) with bytes matching the in-process reference and
  the very payload the cold job served (same phases, same key order), and
* a different job over the same points skips ``T_tree`` and ``T_core``
  via the **disk BVH and core-distance tiers**, again byte-identical.

Usage::

    python tools/ci_service_smoke.py --url http://127.0.0.1:8321 \
        --dataset Uniform100M2:10000
    python tools/ci_service_smoke.py --restart-warmth --port 8422
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.bvh import traversal_engine
from repro.data import parse_dataset_spec
from repro.service import JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec

#: A stored tree is its int32 order, 4 bytes per point, plus the blob's
#: container and metadata, which fit in this many bytes.
TREE_BLOB_OVERHEAD = 4096


def _request(url, data=None, timeout=90):
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


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


def _reference_bytes(body):
    spec = JobSpec.from_dict(body)
    with traversal_engine("reference"):
        outcome = execute_spec(make_exec_spec(spec))
    return canonical_payload_bytes(outcome["payload"])


def check_served_vs_reference(args):
    """The original smoke: served payload == in-process execution."""
    base = args.url.rstrip("/")
    body = {"dataset": args.dataset, "algorithm": args.algorithm}
    result = _await_job(base, body, args.timeout)
    if result["status"] != "done":
        print(f"FAIL: job failed: {result.get('error')}", file=sys.stderr)
        return 1
    served = canonical_payload_bytes(result["payload"])
    reference = _reference_bytes(body)

    served_sha = hashlib.sha256(served).hexdigest()
    if served != reference:
        print(f"FAIL: served payload diverges from in-process reference\n"
              f"  served    sha256={served_sha}\n"
              f"  reference sha256="
              f"{hashlib.sha256(reference).hexdigest()}", file=sys.stderr)
        return 1
    print(f"ok: served payload is byte-identical to in-process execution\n"
          f"  dataset={args.dataset} algorithm={args.algorithm}\n"
          f"  canonical sha256={served_sha}")
    return 0


def _start_server(args, store_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(args.port),
         "--workers", "1",
         "--store-dir", store_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    base = f"http://127.0.0.1:{args.port}"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: server exited early "
                             f"(code {proc.returncode})")
        try:
            health = _request(f"{base}/v1/healthz", timeout=5)
            if not health.get("persistent"):
                raise SystemExit("FAIL: server reports no persistent store")
            return proc, base
        except (urllib.error.URLError, OSError):
            time.sleep(0.25)
    proc.kill()
    raise SystemExit("FAIL: server never became healthy")


def check_restart_warmth(args):
    """serve → kill -9 → serve: repeats must warm from the disk store."""
    mrd = {"dataset": args.dataset, "algorithm": "mrd_emst", "k_pts": 4}
    hdb = {"dataset": args.dataset, "algorithm": "hdbscan", "k_pts": 4}
    store_dir = tempfile.mkdtemp(prefix="repro-smoke-store-")
    proc = None
    try:
        proc, base = _start_server(args, store_dir)
        cold = _await_job(base, mrd, args.timeout)
        assert cold["status"] == "done", cold.get("error")
        assert not cold["cache"]["result_hit"], cold["cache"]
        cold_bytes = canonical_payload_bytes(cold["payload"])
        trees = [entry for entry in
                 _request(f"{base}/v1/artifacts")["artifacts"]
                 if entry["tier"] == "tree"]
        assert len(trees) == 1, f"FAIL: stored trees {trees}"
        n_points = parse_dataset_spec(args.dataset)[1]
        assert trees[0]["nbytes"] <= 4 * n_points + TREE_BLOB_OVERHEAD, (
            f"FAIL: a stored tree of {n_points} points takes "
            f"{trees[0]['nbytes']} bytes, more than its order")

        proc.kill()  # a crash, not a graceful drain
        proc.wait(timeout=30)

        proc, base = _start_server(args, store_dir)
        warm = _await_job(base, mrd, args.timeout)
        assert warm["status"] == "done", warm.get("error")
        assert warm["cache"]["result_hit"], warm["cache"]
        assert warm["cache"]["result_disk_hit"], warm["cache"]
        warm_bytes = canonical_payload_bytes(warm["payload"])
        reference = _reference_bytes(mrd)
        assert warm_bytes == cold_bytes == reference, (
            "FAIL: disk-served repeat diverges from cold/reference bytes")
        # Beyond the canonical form: the disk tier serves the cold job's
        # own payload, phases and key order included.
        assert warm["payload"] == cold["payload"], (
            "FAIL: disk-served payload differs from the cold payload")
        assert list(warm["payload"]) == list(cold["payload"]), (
            "FAIL: disk-served payload reorders the cold payload's keys")

        other = _await_job(base, hdb, args.timeout)
        assert other["status"] == "done", other.get("error")
        assert other["cache"]["tree_disk_hit"], other["cache"]
        assert other["cache"]["core_disk_hit"], other["cache"]
        assert other["timings"]["algo_tree"] == 0.0, other["timings"]
        assert other["timings"]["algo_core"] == 0.0, other["timings"]
        assert canonical_payload_bytes(other["payload"]) == \
            _reference_bytes(hdb), (
            "FAIL: artifact-warm hdbscan diverges from in-process reference")

        stats = _request(f"{base}/v1/stats")
        for tier in ("result_cache", "tree_cache", "core_cache"):
            assert stats[tier]["disk"]["hits"] >= 1, (tier, stats[tier])
        print(f"ok: restart warmth verified "
              f"(dataset={args.dataset})\n"
              f"  repeat: disk result hit, sha256="
              f"{hashlib.sha256(warm_bytes).hexdigest()}\n"
              f"  new job: T_tree and T_core skipped via disk tiers, "
              f"byte-identical to cold execution")
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        shutil.rmtree(store_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--url", default="http://127.0.0.1:8321")
    parser.add_argument("--dataset", default="Uniform100M2:10000")
    parser.add_argument("--algorithm", default="emst",
                        choices=("emst", "mrd_emst", "hdbscan"))
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--restart-warmth", action="store_true",
                        help="run the serve → kill → serve persistence "
                             "check (starts its own servers)")
    parser.add_argument("--port", type=int, default=8422,
                        help="port for --restart-warmth servers")
    args = parser.parse_args(argv)

    if args.restart_warmth:
        # PYTHONPATH must reach the child server processes.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        existing = os.environ.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}"
                                        if existing else src)
        return check_restart_warmth(args)
    return check_served_vs_reference(args)


if __name__ == "__main__":
    sys.exit(main())
