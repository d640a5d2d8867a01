"""Tests for the shared ``/v1`` wire-API layer (repro.api).

Covers what the old thread-per-connection server could not: the uniform
error envelope on every non-2xx (node and router), typed/retryable-keyed
client exceptions, admission control (bounded queue → 429 + Retry-After
+ gauges, accepted work still byte-identical), and long-poll concurrency
beyond the worker pool size.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import aioclient
from repro.api.contract import parse_error_envelope
from repro.client import Client
from repro.cluster import ClusterRouter, Node, create_router_server
from repro.errors import NodeHTTPError, NodeOverloadedError
from repro.service import Engine, JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec
from repro.service.server import create_server


def get(url, timeout=120):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


def post(url, obj, timeout=120):
    req = urllib.request.Request(
        url, data=json.dumps(obj).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


def error_of(excinfo):
    """The envelope's ``error`` object from a raised HTTPError."""
    return json.loads(excinfo.value.read())["error"]


@pytest.fixture
def slow_gate(monkeypatch):
    """An Event that holds the node's ``_slow_spec`` jobs until it is set.

    Tests of parking and shedding windows need those jobs to stay
    unfinished however fast the kernels run, so every ``mrd_emst``
    execution (only ``_slow_spec`` uses that algorithm) waits on the
    gate.  A test sets it once its observation is made.
    """
    gate = threading.Event()

    def gated_execute_spec(exec_spec):
        if exec_spec["algorithm"] == "mrd_emst":
            gate.wait()
        return execute_spec(exec_spec)

    monkeypatch.setattr("repro.service.engine.execute_spec",
                        gated_execute_spec)
    return gate


@pytest.fixture
def bounded_api(slow_gate):
    """A node with a tiny admission bound: 1 worker, 2 unfinished jobs."""
    engine = Engine(max_workers=1)
    server = create_server(engine, max_queue_depth=2)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", engine
    finally:
        slow_gate.set()  # engine.close() runs the queued jobs
        server.shutdown()
        server.server_close()
        engine.close()


@pytest.fixture
def routed_api():
    """A router over one node; yields (router URL, node URL)."""
    engine = Engine(max_workers=1)
    node_server = create_server(engine, node_name="n0")
    threading.Thread(target=node_server.serve_forever, daemon=True).start()
    node_url = "http://{}:{}".format(*node_server.server_address[:2])
    router = ClusterRouter([Node(node_url, name="n0")])
    router_server = create_router_server(router)
    threading.Thread(target=router_server.serve_forever,
                     daemon=True).start()
    router_url = "http://{}:{}".format(*router_server.server_address[:2])
    try:
        yield router_url, node_url
    finally:
        router_server.shutdown()
        router_server.server_close()
        router.close()
        node_server.shutdown()
        node_server.server_close()
        engine.close()


@pytest.fixture
def shedding_fleet():
    """A router over one node that sheds every submission
    (``max_queue_depth=0``); yields (router URL, node URL)."""
    engine = Engine(max_workers=1)
    node_server = create_server(engine, node_name="n0", max_queue_depth=0)
    threading.Thread(target=node_server.serve_forever, daemon=True).start()
    node_url = "http://{}:{}".format(*node_server.server_address[:2])
    router = ClusterRouter([Node(node_url, name="n0")])
    router_server = create_router_server(router)
    threading.Thread(target=router_server.serve_forever,
                     daemon=True).start()
    router_url = "http://{}:{}".format(*router_server.server_address[:2])
    try:
        yield router_url, node_url, router
    finally:
        router_server.shutdown()
        router_server.server_close()
        router.close()
        node_server.shutdown()
        node_server.server_close()
        engine.close()


def metric_value(base, name, default=None):
    """One (unlabeled) metric's scalar value from ``?format=json``."""
    _, doc, _ = get(f"{base}/v1/metrics?format=json")
    for metric in doc["metrics"]:
        if metric["name"] == name:
            return sum(s["value"] for s in metric["samples"])
    return default


# ------------------------------------------------------------ error envelope

def test_envelope_on_bad_json(bounded_api):
    base, _engine = bounded_api
    req = urllib.request.Request(
        f"{base}/v1/jobs", data=b"{not json",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30)
    err = error_of(excinfo)
    assert err["code"] == "bad_request"
    assert err["retryable"] is False
    assert "bad JSON body" in err["message"]


def test_envelope_on_unknown_job(bounded_api):
    base, _engine = bounded_api
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{base}/v1/jobs/job-999999")
    assert excinfo.value.code == 404
    err = error_of(excinfo)
    assert err["code"] == "unknown_job"
    assert err["retryable"] is False


def test_envelope_on_unknown_endpoint(bounded_api):
    base, _engine = bounded_api
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{base}/v1/nope")
    assert excinfo.value.code == 404
    assert error_of(excinfo)["code"] == "not_found"


def test_envelope_on_bad_wait_param(bounded_api):
    # The historical 500: float("soon") raised inside the handler.
    base, _engine = bounded_api
    _, submitted, _ = post(f"{base}/v1/jobs",
                           {"dataset": "Uniform100M2:200"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{base}/v1/jobs/{submitted['job_id']}?wait_s=soon")
    assert excinfo.value.code == 400
    err = error_of(excinfo)
    assert err["code"] == "bad_request"
    assert "wait_s must be a number" in err["message"]


@pytest.mark.parametrize("body", [
    {"points": [[0.0, 0.0], [1.0, 1.0]], "config": {"bits": 0}},
    {"points": [[0.0, 0.0], [1.0, 1.0]], "config": {"bits": 40}},
    {"points": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "config": {"bits": 22}},
    {"dataset": "Hacc37M:50", "config": {"bits": 22}},
    {"dataset": "Uniform100M2:50",
     "config": {"bits": 12, "high_resolution": True}},
    {"dataset": "Uniform100M2:50", "config": {"leaf_size": 1}},
    {"dataset": "Uniform100M2:50", "config": {"record_rounds": True}},
])
def test_bad_config_is_a_400_at_submit(bounded_api, body):
    base, _engine = bounded_api
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{base}/v1/jobs", body)
    assert excinfo.value.code == 400
    assert error_of(excinfo)["code"] == "bad_request"


def test_envelope_on_bad_metrics_format(bounded_api):
    base, _engine = bounded_api
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{base}/v1/metrics?format=xml")
    assert excinfo.value.code == 400
    err = error_of(excinfo)
    assert err["code"] == "bad_request"
    assert "unknown metrics format" in err["message"]


def test_router_relays_envelope(routed_api):
    router_url, _node_url = routed_api
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{router_url}/v1/jobs", {"dataset": "Uniform100M2:50",
                                       "algorithm": "kmeans"})
    assert excinfo.value.code == 400
    err = error_of(excinfo)
    assert err["code"] == "bad_request"
    assert err["retryable"] is False
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{router_url}/v1/jobs/job-999999")
    assert excinfo.value.code == 404
    assert error_of(excinfo)["code"] == "unknown_job"


def test_parse_error_envelope_tolerates_legacy_shape():
    assert parse_error_envelope({"error": "boom"}) == (None, "boom", None)
    code, message, retryable = parse_error_envelope(
        {"error": {"code": "overloaded", "message": "full",
                   "retryable": True}})
    assert (code, message, retryable) == ("overloaded", "full", True)
    assert parse_error_envelope("eh")[1] == "eh"


# --------------------------------------------------------- admission control

def _slow_spec(n, seed):
    return {"dataset": f"Uniform100M2:{n}:{seed}", "algorithm": "mrd_emst",
            "k_pts": 4}


def test_admission_queue_sheds_with_429(bounded_api, slow_gate):
    base, engine = bounded_api
    # Two slow jobs fill the bound (1 running + 1 queued on 1 worker)...
    accepted = [post(f"{base}/v1/jobs", _slow_spec(20000, seed))[1]
                for seed in (1, 2)]
    assert engine.queue_depth() >= 2
    # ... so the third submission sheds with the retryable envelope.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{base}/v1/jobs", _slow_spec(20000, 3))
    assert excinfo.value.code == 429
    assert excinfo.value.headers.get("Retry-After") == "1"
    err = error_of(excinfo)
    assert err["code"] == "overloaded"
    assert err["retryable"] is True
    # Depth gauge and shed counter are live on the scrape surface, which
    # stays reachable under overload (shed-exempt endpoint).
    assert metric_value(base, "repro_admission_queue_depth") >= 2
    assert metric_value(base, "repro_http_shed_total") >= 1
    slow_gate.set()
    # Accepted jobs complete byte-identically to in-process execution.
    for body, submitted in zip((_slow_spec(20000, 1), _slow_spec(20000, 2)),
                               accepted):
        _, result, _ = get(f"{base}/v1/jobs/{submitted['job_id']}?wait_s=60")
        assert result["status"] == "done"
        reference = canonical_payload_bytes(execute_spec(make_exec_spec(
            JobSpec.from_dict(body)))["payload"])
        assert canonical_payload_bytes(result["payload"]) == reference
    # The backlog drained; the shed submission is welcome now.
    status, resubmitted, _ = post(f"{base}/v1/jobs", _slow_spec(20000, 3))
    assert status == 202
    _, result, _ = get(f"{base}/v1/jobs/{resubmitted['job_id']}?wait_s=60")
    assert result["status"] == "done"


def test_healthz_and_metrics_exempt_from_shedding(bounded_api):
    base, _engine = bounded_api
    for seed in (10, 11):
        post(f"{base}/v1/jobs", _slow_spec(20000, seed))
    status, health, _ = get(f"{base}/v1/healthz")
    assert (status, health["status"]) == (200, "ok")
    status, _doc, _ = get(f"{base}/v1/metrics?format=json")
    assert status == 200


# ------------------------------------------------------ long-poll concurrency

def test_long_polls_beyond_worker_pool(bounded_api, slow_gate):
    """More concurrent ``wait_s=`` waiters than worker threads.

    The old thread-per-connection server queued (or deadlocked) here;
    the asyncio host parks each waiter as a task on the engine future.
    """
    base, _engine = bounded_api
    _, submitted, _ = post(f"{base}/v1/jobs", _slow_spec(25000, 42))
    job_id = submitted["job_id"]
    n_waiters = 24  # vs. 1 engine worker
    observed_inflight = []

    async def drive():
        waiters = [asyncio.ensure_future(aioclient.request_json(
            base, f"/v1/jobs/{job_id}?wait_s=30")) for _ in range(n_waiters)]
        await asyncio.sleep(0.3)  # everyone is parked on the future now
        observed_inflight.append(metric_value(
            base, "repro_http_inflight_requests"))
        slow_gate.set()
        return await asyncio.gather(*waiters)

    results = asyncio.run(drive())
    assert len(results) == n_waiters
    for status, _headers, body in results:
        assert status == 200
        assert body["status"] == "done"
    # The gauge proves the waiters were simultaneous, not serialized.
    assert observed_inflight[0] >= n_waiters


# ------------------------------------------------------------- typed clients

def test_node_client_typed_errors(bounded_api):
    base, _engine = bounded_api
    client = Client(base)
    # A caller-supplied id with a space is percent-encoded, not an
    # invalid URL: the server answers it as one more unknown job.
    for job_id in ("job-999999", "job 1"):
        with pytest.raises(NodeHTTPError) as excinfo:
            client.poll(job_id)
        assert excinfo.value.code == 404
        assert excinfo.value.error_code == "unknown_job"
        assert excinfo.value.retryable is False
    with pytest.raises(NodeHTTPError) as excinfo:
        client.submit({"dataset": "Uniform100M2:50", "algorithm": "kmeans"})
    assert excinfo.value.code == 400
    assert excinfo.value.error_code == "bad_request"


def test_node_client_overload_is_typed_and_retry_hinted(bounded_api):
    base, _engine = bounded_api
    client = Client(base)
    for seed in (20, 21):
        client.submit(_slow_spec(20000, seed))
    with pytest.raises(NodeOverloadedError) as excinfo:
        client.submit(_slow_spec(20000, 22))
    assert excinfo.value.retry_after == 1.0
    assert isinstance(excinfo.value, NodeOverloadedError)


def test_router_relays_shed_and_keeps_node_healthy(shedding_fleet):
    router_url, _node_url, router = shedding_fleet
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{router_url}/v1/jobs", {"dataset": "Uniform100M2:200"})
    assert excinfo.value.code == 429
    assert excinfo.value.headers.get("Retry-After") is not None
    err = error_of(excinfo)
    assert err["code"] == "overloaded"
    assert err["retryable"] is True
    # Shedding is proof of life: the router must NOT have marked the node
    # down (a 429 is not a failover-recovery trigger).
    health = router.healthz()
    assert health["nodes"][0]["reachable"] is True
    assert router.ring.nodes[0].healthy


# ----------------------------------------------------------------- client sdk

def test_client_sdk_round_trip(bounded_api):
    base, _engine = bounded_api
    client = Client(base)
    assert client.healthz()["status"] == "ok"
    result = client.submit_and_wait({"dataset": "Uniform100M2:400"},
                                    timeout=60)
    assert result["status"] == "done"
    assert result["payload"]["n_points"] == 400
    assert client.result(result["job_id"])["status"] == "done"
    assert client.trace(result["job_id"]) is not None
    assert client.stats()["jobs"]["done"] >= 1
    assert "repro_jobs_completed_total" in client.metrics_text()
    assert client.flush()["status"] == "ok"
    assert client.compact()["status"] == "ok"


def test_client_sdk_wait_timeout(bounded_api):
    base, _engine = bounded_api
    client = Client(base)
    job_id = client.submit(_slow_spec(25000, 77))["job_id"]
    with pytest.raises(TimeoutError):
        client.wait(job_id, timeout=0.05)


def test_client_traces_rejects_unknown_filter():
    # A misspelt filter fails loudly instead of going out as a query
    # parameter the server ignores.
    with pytest.raises(TypeError):
        Client("http://127.0.0.1:9").traces(min_duration=100)


def test_client_sdk_against_router(routed_api):
    router_url, _node_url = routed_api
    client = Client(router_url)
    result = client.submit_and_wait({"dataset": "Uniform100M2:300"},
                                    timeout=60)
    assert result["status"] == "done"
    assert result["node"] == "n0"


# ------------------------------------------------------------------ layering

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_modules(code):
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_client_imports_no_server_side_package():
    loaded = _loaded_modules("import repro.client")
    server_side = sorted(m for m in loaded if m.startswith(
        ("repro.cluster", "repro.service")))
    assert server_side == []


def test_node_without_peers_never_loads_the_client():
    loaded = _loaded_modules(
        "from repro.service import Engine\n"
        "from repro.service.server import create_server\n"
        "engine = Engine()\n"
        "server = create_server(engine)\n"
        "server.server_close()\n"
        "engine.close()")
    assert "repro.client" not in loaded
    assert "urllib.request" not in loaded


# ------------------------------------------------------------- wire fidelity

def test_legacy_error_shape_still_parses():
    """A legacy server answering ``{"error": "<str>"}`` maps sensibly."""

    import http.server

    class LegacyHandler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = json.dumps({"error": "old-style detail"}).encode()
            self.send_response(418 if "teapot" in self.path else 400)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), LegacyHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = "http://{}:{}".format(*server.server_address[:2])
    try:
        client = Client(base, retries=0)
        with pytest.raises(NodeHTTPError) as excinfo:
            client.healthz()
        assert excinfo.value.code == 400
        assert excinfo.value.error_code is None  # no envelope to read
        assert "old-style detail" in str(excinfo.value)
    finally:
        server.shutdown()
        server.server_close()


def test_two_xx_bodies_carry_no_envelope(bounded_api):
    """The envelope is additive: success bodies are exactly as before."""
    base, _engine = bounded_api
    _, submitted, headers = post(f"{base}/v1/jobs",
                                 {"dataset": "Uniform100M2:200"})
    assert set(submitted) == {"job_id", "status"}
    assert headers.get("X-Repro-Node")
    _, result, _ = get(f"{base}/v1/jobs/{submitted['job_id']}?wait_s=60")
    assert result["status"] == "done"
    assert "error" not in result or result["error"] is None
