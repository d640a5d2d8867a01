#!/usr/bin/env python
"""CI smoke check for the cluster tier: route, kill a node, stay correct.

Two phases, each a fresh 3-node fleet (``python -m repro serve``
subprocesses with their own persistent store shards) behind a
``python -m repro route`` subprocess.

**Phase 1 — failover (replicas=1, the PR 8 contract).**

1. submits half of a mixed batch (three point sets × three algorithms)
   through the router,
2. **SIGKILLs one node mid-stream** — specifically the node that served
   the first job, so the router provably loses live state,
3. submits the other half and awaits everything through the router.

Asserted invariants:

* **every job completes** — submissions that hit the dead node fail over
  (at most one retry), results lost with the dead node are transparently
  re-executed on a survivor at poll time;
* **routed results are byte-identical** to direct in-process execution
  on the reference traversal engine
  (:func:`repro.service.jobs.canonical_payload_bytes`, wall-clock phases
  stripped) — dispatch must never change answers;
* **warm-tier pinning survives**: a re-submitted point set lands on the
  same (surviving) node placement pinned it to — observed through the
  router's ``X-Repro-Node`` header — and is answered as a result-tier
  hit;
* **traces record the failure path**: every routed result carries a span
  tree whose first hop is a router ``route`` span, and at least one job
  touched by the kill shows the dead node in its history (a ``route``
  hop that ended ``unavailable``, or a ``lost`` marker before the
  recovery hop) — while the canonical payload bytes stay trace-free;
* the router's health document reports the degraded fleet (2/3 up), and
  after the router's fan-out diagnostics (``/v1/traces``,
  ``/v1/metrics?format=json``, ``/v1/artifacts``) it still reports the
  killed node unreachable and both survivors reachable and healthy —
  the one node-health policy, on real sockets.

**Phase 2 — replication (replicas=2, the PR 10 headline).**

Nodes are peer-wired (``--peer``), the router runs ``--replicas 2``.
The fleet is warmed with the full batch, the background replica queue is
drained, and then the node that served the first job is SIGKILLed.

* re-submitting **every** body completes byte-identical with **zero
  recomputation**: each job reports a result-tier cache hit, and the
  survivors' fleet-wide ``repro_cache_lookups_total`` result-hit count
  grows by at least the batch size while their completed-job count grows
  by exactly it (replays ride caches, not workers);
* ``repro rebalance`` onto a fresh, empty, **peer-less** replacement
  node exits 0, and a body whose result artifact homes on the
  replacement is then served by it **warm immediately** — a result-tier
  disk hit straight from the rebalanced shard, byte-identical again.

Usage::

    python tools/ci_cluster_smoke.py --base-port 8450
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.bvh import traversal_engine
from repro.cluster import HashRing, Node
from repro.service import JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec
from repro.store import combine_fingerprint, fingerprint_spec

N_NODES = 3


def _request(url, data=None, timeout=90):
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read()), resp.headers.get("X-Repro-Node", "")


def _submit(base, body):
    accepted, node = _request(f"{base}/v1/jobs",
                              json.dumps(body).encode())
    return accepted["job_id"], node


def _await(base, job_id, timeout):
    deadline = time.monotonic() + timeout
    while True:
        chunk = max(0.0, min(deadline - time.monotonic(), 30.0))
        result, node = _request(f"{base}/v1/jobs/{job_id}?wait_s={chunk:.1f}",
                                timeout=chunk + 60)
        if result.get("status") in ("done", "failed"):
            return result, node
        if time.monotonic() >= deadline:
            raise SystemExit(f"FAIL: job {job_id} still "
                             f"{result.get('status')} after {timeout}s")


_REFERENCES = {}


def _reference_bytes(body):
    # Memoized: phase 2 replays the same batch and the in-process
    # reference execution is the expensive part of the check.
    memo_key = json.dumps(body, sort_keys=True)
    if memo_key not in _REFERENCES:
        spec = JobSpec.from_dict(body)
        with traversal_engine("reference"):
            outcome = execute_spec(make_exec_spec(spec))
        _REFERENCES[memo_key] = canonical_payload_bytes(outcome["payload"])
    return _REFERENCES[memo_key]


def _mixed_batch():
    bodies = []
    for n_points in (700, 900, 1100):
        for algorithm in ("emst", "mrd_emst", "hdbscan"):
            bodies.append({"dataset": f"Uniform100M2:{n_points}",
                           "algorithm": algorithm, "k_pts": 4})
    return bodies


def _wait_healthy(proc, url, check, what):
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: {what} exited early "
                             f"(code {proc.returncode})")
        try:
            health, _ = _request(url, timeout=5)
            if check(health):
                return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.25)
    raise SystemExit(f"FAIL: {what} never became healthy")


def run_smoke(args):
    store_root = tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    procs = {}
    router_proc = None
    try:
        node_args = []
        for i in range(N_NODES):
            name = f"node{i}"
            port = args.base_port + i
            procs[name] = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(port), "--workers", "1", "--name", name,
                 "--store-dir", os.path.join(store_root, name)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            node_args += ["--node", f"{name}=http://127.0.0.1:{port}"]
        for i, (name, proc) in enumerate(procs.items()):
            _wait_healthy(proc,
                          f"http://127.0.0.1:{args.base_port + i}/v1/healthz",
                          lambda h: h.get("status") == "ok", name)
        router_port = args.base_port + N_NODES
        router_proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "route",
             "--port", str(router_port), *node_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        base = f"http://127.0.0.1:{router_port}"
        _wait_healthy(router_proc, f"{base}/v1/healthz",
                      lambda h: h.get("nodes_up") == N_NODES, "router")
        print(f"ok: {N_NODES} nodes + router up at {base}")

        bodies = _mixed_batch()
        half = len(bodies) // 2
        submitted = [(body, *_submit(base, body)) for body in bodies[:half]]

        # Kill the node that served the first job — mid-stream, with its
        # results (and any still-running jobs) lost with it.
        victim = submitted[0][2]
        os.kill(procs[victim].pid, signal.SIGKILL)
        procs[victim].wait(timeout=30)
        print(f"ok: killed {victim} mid-stream (SIGKILL)")

        submitted += [(body, *_submit(base, body)) for body in bodies[half:]]

        completions = []
        for body, job_id, _node in submitted:
            result, node = _await(base, job_id, args.timeout)
            if result["status"] != "done":
                raise SystemExit(f"FAIL: job {job_id} failed: "
                                 f"{result.get('error')}")
            served = canonical_payload_bytes(result["payload"])
            if served != _reference_bytes(body):
                raise SystemExit(
                    f"FAIL: routed payload diverges from in-process "
                    f"reference for {body} (served sha256="
                    f"{hashlib.sha256(served).hexdigest()})")
            completions.append((body, node, result))
        print(f"ok: all {len(completions)} jobs completed through the "
              f"router, byte-identical to in-process execution "
              f"(one node down)")

        # Every routed job carries a trace whose first span is the
        # router's hop; the byte-identity checks above already proved the
        # trace never leaks into the canonical payload.
        failure_hops = 0
        for body, node, result in completions:
            trace = result.get("trace")
            if not trace or not trace.get("spans"):
                raise SystemExit(f"FAIL: routed job for {body} carries "
                                 f"no trace")
            spans = trace["spans"]
            if spans[0]["name"] != "route":
                raise SystemExit(f"FAIL: first span should be the router "
                                 f"hop, got {spans[0]['name']!r}")
            history = [(span["name"], span["node"],
                        span.get("meta", {}).get("outcome"))
                       for span in spans if span["name"] in ("route", "lost")]
            touched_victim = any(
                node_name == victim and
                (name == "lost" or outcome == "unavailable")
                for name, node_name, outcome in history)
            if touched_victim:
                failure_hops += 1
                final_hop = [h for h in history if h[0] == "route"][-1]
                if final_hop[1] == victim or final_hop[2] != "accepted":
                    raise SystemExit(f"FAIL: trace history {history} does "
                                     f"not end on an accepted survivor hop")
        if not failure_hops:
            raise SystemExit(
                f"FAIL: no trace recorded the dead node {victim} — "
                f"failover/recovery left no span history")
        print(f"ok: traces intact — every result shows its router hop, "
              f"{failure_hops} trace(s) record {victim}'s failure and "
              f"the recovery hop to a survivor")

        # Warm pinning: re-submit a point set whose serving node survived;
        # placement must send it back there and the result tier must
        # answer.
        body, node, _result = next(
            (c for c in completions if c[1] != victim), None) or (
            None, None, None)
        if body is None:
            raise SystemExit("FAIL: no job served by a surviving node")
        job_id, resubmit_node = _submit(base, body)
        if resubmit_node != node:
            raise SystemExit(
                f"FAIL: re-submission routed to {resubmit_node}, "
                f"expected the warm node {node}")
        result, _ = _await(base, job_id, args.timeout)
        if not result["cache"].get("result_hit"):
            raise SystemExit(
                f"FAIL: re-submitted job was not a result-tier hit on "
                f"{node}: {result['cache']}")
        print(f"ok: re-submitted point set pinned back to {node} and "
              f"answered from its warm result tier")

        # Every fan-out applies the one node-health policy: the
        # diagnostics below must neither revive the dead node nor mark a
        # survivor down.
        for path in ("/v1/traces", "/v1/metrics?format=json",
                     "/v1/artifacts"):
            _request(f"{base}{path}")
        health, _ = _request(f"{base}/v1/healthz")
        if health["status"] != "degraded" or health["nodes_up"] != 2:
            raise SystemExit(f"FAIL: router health should report 2/3 up, "
                             f"got {health['status']} "
                             f"{health['nodes_up']}/{health['nodes_total']}")
        for entry in health["nodes"]:
            alive = entry["name"] != victim
            if entry["reachable"] is not alive \
                    or entry["healthy"] is not alive:
                raise SystemExit(f"FAIL: after the fan-out diagnostics, "
                                 f"healthz reports {entry}")
        print(f"ok: after traces/metrics/artifacts fan-outs, healthz "
              f"reports {victim} unreachable and both survivors "
              f"reachable and healthy")
        stats, _ = _request(f"{base}/v1/stats")
        print(f"ok: fleet degraded but serving "
              f"(failovers={stats['router']['failovers']}, "
              f"resubmits={stats['router']['resubmits']}, "
              f"jobs done={stats['fleet']['jobs'].get('done', 0)})")
        return 0
    finally:
        for proc in list(procs.values()) + [router_proc]:
            if proc is not None and proc.poll() is None:
                proc.kill()
        for proc in list(procs.values()) + [router_proc]:
            if proc is not None:
                proc.wait(timeout=30)
        shutil.rmtree(store_root, ignore_errors=True)


def _metric_total(doc, name, **match):
    """Sum a family's samples whose labels include ``match``."""
    total = 0.0
    for family in doc.get("metrics", []):
        if family.get("name") != name:
            continue
        for sample in family.get("samples", []):
            labels = sample.get("labels") or {}
            if all(labels.get(k) == v for k, v in match.items()):
                total += sample.get("value", 0.0)
    return total


def _drain_replication(base, timeout=60):
    deadline = time.monotonic() + timeout
    while True:
        stats, _ = _request(f"{base}/v1/stats")
        if stats["router"].get("replica_pending", 0) == 0:
            return
        if time.monotonic() >= deadline:
            raise SystemExit("FAIL: replica queue never drained "
                             f"({stats['router']['replica_pending']} "
                             f"still pending)")
        time.sleep(0.1)


def run_replicated_smoke(args):
    """Phase 2: replicas=2 — node death costs zero recomputation."""
    store_root = tempfile.mkdtemp(prefix="repro-cluster-smoke-rep-")
    procs = {}
    router_proc = None
    base_port = args.base_port + 10
    urls = {f"rep{i}": f"http://127.0.0.1:{base_port + i}"
            for i in range(N_NODES)}
    try:
        node_args = []
        for i in range(N_NODES):
            name = f"rep{i}"
            peer_args = []
            for peer, url in urls.items():
                if peer != name:
                    peer_args += ["--peer", url]
            procs[name] = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(base_port + i), "--workers", "1",
                 "--name", name,
                 "--store-dir", os.path.join(store_root, name),
                 *peer_args],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            node_args += ["--node", f"{name}={urls[name]}"]
        for name, proc in procs.items():
            _wait_healthy(proc, f"{urls[name]}/v1/healthz",
                          lambda h: h.get("status") == "ok", name)
        router_port = base_port + N_NODES
        router_proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "route",
             "--port", str(router_port), "--replicas", "2", *node_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        base = f"http://127.0.0.1:{router_port}"
        _wait_healthy(router_proc, f"{base}/v1/healthz",
                      lambda h: h.get("nodes_up") == N_NODES, "router")
        print(f"ok: replicated fleet ({N_NODES} peer-wired nodes, "
              f"replicas=2) + router up at {base}")

        # Warm: run the full batch through the router, then wait for the
        # background replica queue to finish copying every finished
        # job's artifacts to its second home node.
        bodies = _mixed_batch()
        warmed = [(body, *_submit(base, body)) for body in bodies]
        victim = warmed[0][2]
        for body, job_id, _node in warmed:
            result, _ = _await(base, job_id, args.timeout)
            if result["status"] != "done":
                raise SystemExit(f"FAIL: warm job {job_id} failed: "
                                 f"{result.get('error')}")
        _drain_replication(base)
        print(f"ok: {len(bodies)} jobs warmed and replicated "
              f"(replica queue drained)")

        # Snapshot every node's cache/job counters, then kill the node
        # that served the first job.  The replay below must be answered
        # entirely from the survivors' replicated tiers.
        before = {}
        for name, url in urls.items():
            doc, _ = _request(f"{url}/v1/metrics?format=json")
            before[name] = doc
        os.kill(procs[victim].pid, signal.SIGKILL)
        procs[victim].wait(timeout=30)
        print(f"ok: killed {victim} (SIGKILL) after warm-up")

        for body in bodies:
            job_id, _node = _submit(base, body)
            result, node = _await(base, job_id, args.timeout)
            if result["status"] != "done":
                raise SystemExit(f"FAIL: replay after node death failed "
                                 f"for {body}: {result.get('error')}")
            if node == victim:
                raise SystemExit(f"FAIL: replay claims dead node {victim}")
            if not result["cache"].get("result_hit"):
                raise SystemExit(
                    f"FAIL: replay of {body} recomputed on {node} "
                    f"instead of hitting a replicated result tier: "
                    f"{result['cache']}")
            if canonical_payload_bytes(result["payload"]) != \
                    _reference_bytes(body):
                raise SystemExit(f"FAIL: replayed payload diverges for "
                                 f"{body}")
        hit_delta = done_delta = 0.0
        survivors = [name for name in urls if name != victim]
        for name in survivors:
            doc, _ = _request(f"{urls[name]}/v1/metrics?format=json")
            hit_delta += (
                _metric_total(doc, "repro_cache_lookups_total",
                              tier="result", outcome="hit") -
                _metric_total(before[name], "repro_cache_lookups_total",
                              tier="result", outcome="hit"))
            done_delta += (
                _metric_total(doc, "repro_jobs_completed_total") -
                _metric_total(before[name], "repro_jobs_completed_total"))
        if hit_delta < len(bodies):
            raise SystemExit(
                f"FAIL: survivors report only {hit_delta:.0f} result-tier "
                f"hits for {len(bodies)} replayed jobs — some recomputed")
        if done_delta != len(bodies):
            raise SystemExit(
                f"FAIL: survivors completed {done_delta:.0f} jobs for "
                f"{len(bodies)} replays — the death was not recompute-free")
        print(f"ok: all {len(bodies)} replays byte-identical with zero "
              f"recompute ({hit_delta:.0f} fleet-wide result-tier hits, "
              f"{done_delta:.0f} jobs completed)")

        # Rebalance onto a fresh, empty, peer-less replacement: warm
        # service must come from its own rebalanced shard, nothing else.
        replacement = "rep9"
        replacement_port = base_port + N_NODES + 1
        replacement_url = f"http://127.0.0.1:{replacement_port}"
        procs[replacement] = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(replacement_port), "--workers", "1",
             "--name", replacement,
             "--store-dir", os.path.join(store_root, replacement)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _wait_healthy(procs[replacement], f"{replacement_url}/v1/healthz",
                      lambda h: h.get("status") == "ok", replacement)
        members = [f"{name}={urls[name]}" for name in survivors]
        members.append(f"{replacement}={replacement_url}")
        rebalance = subprocess.run(
            [sys.executable, "-m", "repro", "rebalance",
             *(arg for member in members for arg in ("--node", member)),
             "--replicas", "2",
             "--journal", os.path.join(store_root, "rebalance.jsonl")],
            capture_output=True, text=True, timeout=300)
        if rebalance.returncode != 0:
            raise SystemExit(f"FAIL: repro rebalance exited "
                             f"{rebalance.returncode}:\n{rebalance.stdout}"
                             f"{rebalance.stderr}")
        print(f"ok: {rebalance.stdout.strip()}")

        # A body whose result artifact homes on the replacement must be
        # served warm by it immediately — straight off the copied shard.
        ring = HashRing(
            [Node(urls[name], name=name) for name in survivors] +
            [Node(replacement_url, name=replacement)])
        target_body = None
        for body in bodies:
            spec = JobSpec.from_dict(body)
            result_key = combine_fingerprint(fingerprint_spec(spec),
                                             spec.params_key())
            homes = [n.name for n in ring.homes(result_key, 2,
                                                healthy_only=False)]
            if replacement in homes:
                target_body = body
                break
        if target_body is None:
            raise SystemExit("FAIL: no result artifact homes on the "
                             "replacement node (9 keys, 2 of 3 homes "
                             "each — placement is broken)")
        job_id, node = _submit(replacement_url, target_body)
        result, node = _await(replacement_url, job_id, args.timeout)
        if result["status"] != "done":
            raise SystemExit(f"FAIL: job on replacement failed: "
                             f"{result.get('error')}")
        if node != replacement:
            raise SystemExit(f"FAIL: expected {replacement} to answer, "
                             f"got {node}")
        if not result["cache"].get("result_hit") or \
                not result["cache"].get("result_disk_hit"):
            raise SystemExit(
                f"FAIL: replacement recomputed instead of serving its "
                f"rebalanced shard: {result['cache']}")
        if canonical_payload_bytes(result["payload"]) != \
                _reference_bytes(target_body):
            raise SystemExit("FAIL: rebalanced payload diverges from the "
                             "in-process reference")
        print(f"ok: rebalanced replacement {replacement} served "
              f"{target_body['dataset']}/{target_body['algorithm']} "
              f"warm immediately (result-tier disk hit)")
        return 0
    finally:
        for proc in list(procs.values()) + [router_proc]:
            if proc is not None and proc.poll() is None:
                proc.kill()
        for proc in list(procs.values()) + [router_proc]:
            if proc is not None:
                proc.wait(timeout=30)
        shutil.rmtree(store_root, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base-port", type=int, default=8450,
                        help="nodes bind base-port..+2, the router +3")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds to wait for any single job")
    args = parser.parse_args(argv)

    # PYTHONPATH must reach the node and router subprocesses.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}"
                                    if existing else src)
    code = run_smoke(args)
    if code:
        return code
    return run_replicated_smoke(args)


if __name__ == "__main__":
    sys.exit(main())
