"""Open-loop load benchmark for the asyncio ``/v1`` front end.

Unlike ``bench_cluster.py`` (closed-loop: the next request waits for the
last response, so the generator slows down exactly when the server
does), this harness is **open-loop**: arrivals follow a seeded Poisson
schedule at a fixed offered rate whether or not earlier requests have
completed — the only honest way to measure latency under load, and the
harness the replication/compiled-engine work will be judged against.

Three stages, all against real ``python -m repro serve`` subprocesses:

1. **Long-poll concurrency** — park hundreds of concurrent ``wait_s=``
   waiters on one queued job over a 4-worker engine and poll the
   server's ``repro_http_inflight_requests`` gauge for its peak
   mid-park.  The job waits at a lower priority behind a backlog that is
   topped up until the bar is read or the deadline passes, so the
   waiters have that long to park on any box.  The old thread-per-connection server capped this at its
   thread pool; the asyncio host must hold ≥ 200 (the PR's acceptance
   bar).
2. **Offered-load sweep** — for each arrival rate, submit distinct cold
   jobs on the Poisson schedule, await each to terminal, and record
   p50/p99 completion latency, throughput, and error/shed rates.  The
   top rate is chosen to exceed service capacity so the sweep records
   the overload→429 shed region.
3. **Deterministic overload** — a 1-worker node with ``--queue-depth 4``
   takes a 60-submission burst once four slow jobs fill its bound; the
   sheds must carry the retryable ``overloaded`` envelope and a
   ``Retry-After`` header.

Results go to ``reports/BENCH_load.json`` (plus the rendered table).
Runs standalone: ``python benchmarks/bench_load.py`` (``--smoke`` for CI
sizes — same long-poll bar, shorter sweep).
"""

import argparse
import asyncio
import json
import os
import random
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.api import aioclient
from repro.bench.tables import REPORTS_DIR, render_table, save_report

RATES = (3.0, 6.0, 12.0, 30.0, 80.0)
SWEEP_SECONDS = 8.0
SWEEP_POINTS = 3000
MAX_ARRIVALS_PER_RATE = 800
WAITERS = 250
WAITER_BAR = 200
#: The park stage polls the inflight gauge this often, for at most this
#: long (or until the bar is met or the parked-on job finishes).
PARK_POLL_INTERVAL_S = 0.1
PARK_POLL_SECONDS = 10.0
#: Unfinished priority-0 jobs kept ahead of the parked-on job while the
#: gauge reads below the bar.
BACKLOG_JOBS = 12
SEED = 20220822  # ICPP'22 — keeps every arrival schedule reproducible


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(extra_args, what):
    port = _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         *extra_args],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: {what} exited early "
                             f"(code {proc.returncode})")
        try:
            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=5):
                return proc, url
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    proc.kill()
    raise SystemExit(f"FAIL: {what} never became healthy")


def _gauges(base, *names):
    """The named gauges' values, summed over their samples."""
    with urllib.request.urlopen(f"{base}/v1/metrics?format=json",
                                timeout=30) as resp:
        doc = json.loads(resp.read())
    return {metric["name"]: sum(s["value"] for s in metric["samples"])
            for metric in doc["metrics"] if metric["name"] in names}


def _quantile(sorted_samples, q):
    if not sorted_samples:
        return None
    index = min(len(sorted_samples) - 1,
                max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[index]


# ------------------------------------------------- stage 1: long-poll park

async def _long_poll_stage(base, n_waiters):
    """Park ``n_waiters`` concurrent long-polls on one queued job."""
    submitted = 0

    async def submit(priority=0):
        nonlocal submitted
        # Distinct seeds: every job is a slow cold compute.
        _status, _headers, accepted = await aioclient.request_json(
            base, "/v1/jobs", method="POST",
            data={"dataset": f"Uniform100M2:20000:{SEED + submitted}",
                  "algorithm": "mrd_emst", "k_pts": 4,
                  "priority": priority})
        submitted += 1
        return accepted["job_id"]

    # The target runs only once no priority-0 job is queued, and the
    # backlog is topped up while the gauge reads below the bar, so the
    # target stays unfinished until every waiter has parked (or the
    # deadline passes), however fast the workers drain the queue.
    for _ in range(BACKLOG_JOBS):
        await submit()
    target = await submit(priority=-1)
    waiters = [asyncio.ensure_future(aioclient.request_json(
        base, f"/v1/jobs/{target}?wait_s=60", timeout=180))
        for _ in range(n_waiters)]
    # /v1/metrics is shed-exempt, so the gauge is readable mid-park.  Keep
    # its peak: waiters connect while the workers hog the CPU, so how many
    # have parked by any one fixed instant varies from run to run.
    inflight = 0.0
    deadline = time.monotonic() + PARK_POLL_SECONDS
    while (inflight < WAITER_BAR and time.monotonic() < deadline
           and not any(waiter.done() for waiter in waiters)):
        await asyncio.sleep(PARK_POLL_INTERVAL_S)
        gauges = await asyncio.to_thread(
            _gauges, base, "repro_http_inflight_requests",
            "repro_admission_queue_depth")
        inflight = max(inflight,
                       gauges.get("repro_http_inflight_requests", 0.0))
        if inflight < WAITER_BAR:
            unfinished = int(gauges.get("repro_admission_queue_depth", 0))
            for _ in range(BACKLOG_JOBS + 1 - unfinished):
                await submit()
    results = await asyncio.gather(*waiters)
    statuses = {body.get("status") for status, _h, body in results
                if status == 200}
    return {
        "waiters": n_waiters,
        "inflight_gauge_mid_park": inflight,
        "waiters_answered": sum(1 for s, _h, _b in results if s == 200),
        "terminal_statuses": sorted(statuses),
        "backlog_jobs": submitted - 1,
    }


# ------------------------------------------------- stage 2: open-loop sweep

async def _await_terminal(base, job_id, arrival_t0, deadline_s=120.0):
    deadline = time.monotonic() + deadline_s
    while True:
        chunk = max(0.0, min(deadline - time.monotonic(), 30.0))
        status, _headers, body = await aioclient.request_json(
            base, f"/v1/jobs/{job_id}?wait_s={chunk:.1f}",
            timeout=chunk + 60)
        if status != 200:
            return "error", None
        if body.get("status") in ("done", "failed"):
            outcome = "done" if body["status"] == "done" else "error"
            return outcome, time.monotonic() - arrival_t0
        if time.monotonic() >= deadline:
            return "error", None


async def _drive_one(base, body, results):
    t0 = time.monotonic()
    try:
        status, headers, decoded = await aioclient.request_json(
            base, "/v1/jobs", method="POST", data=body, timeout=90)
    except (OSError, asyncio.TimeoutError, json.JSONDecodeError) as exc:
        results["errors"].append(str(exc))
        return
    if status == 429:
        results["shed"].append({
            "envelope": decoded.get("error"),
            "retry_after": headers.get("retry-after"),
        })
        return
    if status != 202:
        results["errors"].append(f"unexpected submit status {status}")
        return
    outcome, latency = await _await_terminal(base, decoded["job_id"], t0)
    if outcome == "done":
        results["latencies"].append(latency)
    else:
        results["errors"].append(f"job {decoded['job_id']} did not finish")


async def _sweep_one_rate(base, rate, duration_s, n_points, rate_index):
    """One offered rate: Poisson arrivals that never wait for completions."""
    schedule = random.Random(SEED + rate_index)
    n_arrivals = min(int(rate * duration_s), MAX_ARRIVALS_PER_RATE)
    results = {"latencies": [], "shed": [], "errors": []}
    tasks = []
    started = time.monotonic()
    for i in range(n_arrivals):
        # Distinct seed per arrival: every job is a cold compute, so the
        # measured latency is service time, not cache luck.
        body = {"dataset": f"Uniform100M2:{n_points}:"
                           f"{SEED + 1000 * rate_index + i}",
                "algorithm": "emst"}
        tasks.append(asyncio.ensure_future(
            _drive_one(base, body, results)))
        await asyncio.sleep(schedule.expovariate(rate))
    await asyncio.gather(*tasks)
    wall = time.monotonic() - started
    latencies = sorted(results["latencies"])
    return {
        "offered_rate": rate,
        "arrivals": n_arrivals,
        "done": len(latencies),
        "shed": len(results["shed"]),
        "errors": len(results["errors"]),
        "shed_rate": len(results["shed"]) / n_arrivals if n_arrivals else 0,
        "p50_s": _quantile(latencies, 0.50),
        "p99_s": _quantile(latencies, 0.99),
        "throughput_jobs_per_sec": len(latencies) / wall if wall else 0,
        "shed_sample": results["shed"][0] if results["shed"] else None,
    }


# ------------------------------------------- stage 3: deterministic overload

async def _overload_stage(base, burst=60):
    """A burst far past a tiny admission bound; sheds must carry the
    envelope."""
    # Four slow jobs fill the bound before the burst.  The one worker
    # finishes the first only after ~0.5 s, so every burst submit arriving
    # before then sheds; with the bound empty, a fast worker could drain
    # it as quickly as the burst arrives, and then nothing shed.
    for i in range(4):
        await aioclient.request_json(
            base, "/v1/jobs", method="POST",
            data={"dataset": f"Uniform100M2:100000:{SEED + 8000 + i}",
                  "algorithm": "mrd_emst", "k_pts": 4})
    results = {"latencies": [], "shed": [], "errors": []}
    tasks = [asyncio.ensure_future(_drive_one(
        base, {"dataset": f"Uniform100M2:4000:{SEED + 9000 + i}",
               "algorithm": "emst"}, results))
        for i in range(burst)]
    await asyncio.gather(*tasks)
    return {
        "burst": burst,
        "done": len(results["latencies"]),
        "shed": len(results["shed"]),
        "errors": len(results["errors"]),
        "shed_sample": results["shed"][0] if results["shed"] else None,
    }


# ----------------------------------------------------------------- driver

def run(rates=RATES, duration_s=SWEEP_SECONDS, n_points=SWEEP_POINTS,
        waiters=WAITERS):
    measurements = {"rates": list(rates), "duration_s": duration_s,
                    "n_points": n_points, "seed": SEED}

    proc, base = _start_server(
        ["--workers", "4", "--queue-depth", "64"],
        "4-worker load server")
    try:
        measurements["long_poll"] = asyncio.run(
            _long_poll_stage(base, waiters))
        measurements["sweep"] = [
            asyncio.run(_sweep_one_rate(base, rate, duration_s, n_points, i))
            for i, rate in enumerate(rates)]
    finally:
        proc.kill()
        proc.wait(timeout=30)

    proc, base = _start_server(
        ["--workers", "1", "--queue-depth", "4"], "overload server")
    try:
        measurements["overload"] = asyncio.run(_overload_stage(base))
    finally:
        proc.kill()
        proc.wait(timeout=30)

    rows = [[entry["offered_rate"], entry["arrivals"], entry["done"],
             entry["shed"],
             "-" if entry["p50_s"] is None else f"{entry['p50_s'] * 1e3:.0f}",
             "-" if entry["p99_s"] is None else f"{entry['p99_s'] * 1e3:.0f}",
             f"{entry['throughput_jobs_per_sec']:.1f}"]
            for entry in measurements["sweep"]]
    table = render_table(
        ["offered/s", "arrivals", "done", "shed", "p50 ms", "p99 ms",
         "served/s"], rows,
        title=f"Open-loop offered-load sweep — {n_points}-point emst jobs "
              f"on a 4-worker node (queue-depth 64)")
    save_report("bench_load.txt", table)
    return measurements, table


def save_json(measurements):
    """Write the measurements to ``reports/BENCH_load.json``."""
    payload = {"benchmark": "bench_load", "cpu_count": os.cpu_count(),
               **measurements}
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_load.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check(measurements, smoke):
    long_poll = measurements["long_poll"]
    assert long_poll["waiters_answered"] == long_poll["waiters"], long_poll
    assert long_poll["inflight_gauge_mid_park"] >= WAITER_BAR, \
        (f"FAIL: only {long_poll['inflight_gauge_mid_park']} concurrent "
         f"long-polls observed; the acceptance bar is {WAITER_BAR}")
    # The lowest offered rate must be under capacity: a computable p99.
    lowest = measurements["sweep"][0]
    assert lowest["done"] > 0 and lowest["p99_s"] is not None, lowest
    # The deterministic overload burst must shed with the full envelope.
    overload = measurements["overload"]
    assert overload["shed"] >= 1, overload
    sample = overload["shed_sample"]
    assert sample["envelope"]["code"] == "overloaded", sample
    assert sample["envelope"]["retryable"] is True, sample
    assert sample["retry_after"] is not None, sample
    if not smoke:
        # The sweep's top rate must have entered the shed region.
        top = measurements["sweep"][-1]
        assert top["shed"] >= 1, \
            f"FAIL: no shed at {top['offered_rate']}/s — raise the top rate"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rates", type=float, nargs="+",
                        default=list(RATES),
                        help="offered arrival rates (jobs/s) to sweep")
    parser.add_argument("--duration", type=float, default=SWEEP_SECONDS,
                        help="seconds of arrivals per rate")
    parser.add_argument("--points", type=int, default=SWEEP_POINTS)
    parser.add_argument("--waiters", type=int, default=WAITERS,
                        help="concurrent wait_s= long-polls in stage 1")
    parser.add_argument("--smoke", action="store_true",
                        help="short sweep for CI; the long-poll bar and "
                             "shed-envelope assertions still apply")
    args = parser.parse_args(argv)
    rates = (20.0, 400.0) if args.smoke else tuple(args.rates)
    duration = 1.5 if args.smoke else args.duration

    measurements, table = run(rates=rates, duration_s=duration,
                              n_points=args.points, waiters=args.waiters)
    print(table)
    path = save_json(measurements)
    print(f"\nmeasurements written to {path}")
    _check(measurements, smoke=args.smoke)
    long_poll = measurements["long_poll"]
    print(f"ok: {long_poll['inflight_gauge_mid_park']:.0f} concurrent "
          f"long-polls held on a 4-worker engine "
          f"(bar {WAITER_BAR}); overload burst shed "
          f"{measurements['overload']['shed']}/"
          f"{measurements['overload']['burst']} with retryable "
          f"'overloaded' envelopes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
