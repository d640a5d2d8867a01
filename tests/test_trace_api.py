"""HTTP surface tests for trace archive, events and flight-recorder dumps.

Covers the four PR endpoints on both roles — node (`repro serve`) and
router (`repro route`): ``GET /v1/traces``, ``GET /v1/traces/<id>``,
``GET /v1/admin/events`` and ``POST /v1/admin/dump``.  Failing jobs are
the workhorse probe: the retention policy *always* keeps a failure, so
the assertions hold at any sample rate.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterRouter, Node
from repro.cluster.server import create_router_server
from repro.service import Engine
from repro.service.server import create_server

#: Passes submit validation, fails at runtime (hdbscan needs >= 2 points)
#: — a guaranteed-retained trace at any sample rate.
FAILING_BODY = {"points": [[0.0, 0.0]], "algorithm": "hdbscan"}


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
        return json.loads(resp.read())


def _post(base, path, body):
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.loads(resp.read())


def _error(base, path, body=None):
    """(status, error envelope) for a request expected to fail."""
    try:
        if body is None:
            _get(base, path)
        else:
            _post(base, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())["error"]
    raise AssertionError(f"{path} unexpectedly succeeded")


def _run_failing_job(base):
    """Submit the failing probe and return its terminal body."""
    accepted = _post(base, "/v1/jobs", dict(FAILING_BODY))
    body = _get(base, f"/v1/jobs/{accepted['job_id']}?wait_s=60")
    assert body["status"] == "failed", body
    assert body.get("trace"), "failed job must still carry its span tree"
    return body


class TestNodeTraceEndpoints:
    def test_failed_trace_always_archived_and_queryable(self, api):
        body = _run_failing_job(api)
        doc = _get(api, "/v1/traces?outcome=failed&limit=500")
        ids = [record["trace_id"] for record in doc["traces"]]
        assert body["trace"]["trace_id"] in ids
        record = next(r for r in doc["traces"]
                      if r["trace_id"] == body["trace"]["trace_id"])
        assert record["reason"] == "failed"
        assert record["algorithm"] == "hdbscan"
        assert doc["stats"]["retained"] >= 1

    def test_archived_record_byte_identical_to_job_body_trace(self, api):
        body = _run_failing_job(api)
        record = _get(api, f"/v1/traces/{body['trace']['trace_id']}")
        assert json.dumps(record["trace"], sort_keys=True) \
            == json.dumps(body["trace"], sort_keys=True)

    def test_unknown_trace_is_a_404_with_typed_code(self, api):
        status, envelope = _error(api, "/v1/traces/tr-does-not-exist")
        assert status == 404
        assert envelope["code"] == "unknown_trace"

    def test_bad_query_params_are_400(self, api):
        for path in ("/v1/traces?limit=0",
                     "/v1/traces?limit=9999",
                     "/v1/traces?outcome=exploded",
                     "/v1/traces?min_duration_ms=banana",
                     "/v1/admin/events?limit=0"):
            status, envelope = _error(api, path)
            assert status == 400, path
            assert envelope["code"] == "bad_request", path

    def test_min_duration_filter_excludes_fast_jobs(self, api):
        _run_failing_job(api)
        doc = _get(api, "/v1/traces?min_duration_ms=3600000")
        assert doc["traces"] == []

    def test_events_ring_answers_with_stats(self, api):
        _run_failing_job(api)
        doc = _get(api, "/v1/admin/events?limit=5")
        assert len(doc["events"]) <= 5
        assert doc["stats"]["seen"] > 0

    def test_dump_is_a_complete_bundle(self, api):
        _run_failing_job(api)
        bundle = _post(api, "/v1/admin/dump", {})
        assert bundle["role"] == "node"
        assert bundle["config"]["max_workers"] == 1
        assert bundle["stats"]["jobs"]["failed"] >= 1
        assert any(m["name"] == "repro_jobs_failed_total"
                   for m in bundle["metrics"]["metrics"])
        assert [s["name"] for s in bundle["slo"]] \
            == ["availability", "latency_1s"]
        assert bundle["trace_archive"]["retained"] >= 1
        assert "events" in bundle and "events_stats" in bundle
        json.dumps(bundle)  # the whole bundle must be JSON-serializable


@pytest.fixture
def trace_fleet(tmp_path):
    """Two live nodes (everything retained) + a router HTTP server."""
    engines, servers = [], []
    for i in range(2):
        engine = Engine(max_workers=1, store_dir=str(tmp_path / f"node-{i}"),
                        trace_slow_threshold=0.0)  # retain every trace
        server = create_server(engine, node_name=f"node-{i}")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        engines.append(engine)
        servers.append(server)
    nodes = [Node(f"http://127.0.0.1:{server.server_address[1]}",
                  name=f"node-{i}")
             for i, server in enumerate(servers)]
    router = ClusterRouter(nodes, timeout=30.0)
    router_server = create_router_server(router)
    threading.Thread(target=router_server.serve_forever,
                     daemon=True).start()
    base = f"http://127.0.0.1:{router_server.server_address[1]}"
    try:
        yield base
    finally:
        router_server.shutdown()
        router_server.server_close()
        for server, engine in zip(servers, engines):
            server.shutdown()
            server.server_close()
            engine.close()
        router.close()


class TestRouterTraceEndpoints:
    def _submit_spread(self, base, count=4):
        """Distinct fast jobs so the ring spreads them over both nodes."""
        bodies = []
        for n in range(300, 300 + count):
            accepted = _post(base, "/v1/jobs",
                             {"dataset": f"Uniform100M2:{n}"})
            body = _get(base, f"/v1/jobs/{accepted['job_id']}?wait_s=60")
            assert body["status"] == "done", body
            bodies.append(body)
        return bodies

    def test_fanout_merges_node_tagged_records(self, trace_fleet):
        bodies = self._submit_spread(trace_fleet)
        doc = _get(trace_fleet, "/v1/traces?limit=500")
        ids = {record["trace_id"] for record in doc["traces"]}
        assert {b["trace"]["trace_id"] for b in bodies} <= ids
        assert all(record["node"].startswith("node-")
                   for record in doc["traces"])
        assert set(doc["nodes"]) == {"node-0", "node-1"}
        assert all("returned" in entry for entry in doc["nodes"].values())
        durations = [record["duration_s"] for record in doc["traces"]]
        assert durations == sorted(durations, reverse=True)

    def test_lookup_resolves_across_the_fleet(self, trace_fleet):
        bodies = self._submit_spread(trace_fleet)
        for body in bodies:
            record = _get(trace_fleet,
                          f"/v1/traces/{body['trace']['trace_id']}")
            assert json.dumps(record["trace"], sort_keys=True) \
                == json.dumps(body["trace"], sort_keys=True)
        status, envelope = _error(trace_fleet, "/v1/traces/tr-nowhere")
        assert status == 404 and envelope["code"] == "unknown_trace"

    def test_router_dump_and_events(self, trace_fleet):
        self._submit_spread(trace_fleet, count=1)
        bundle = _post(trace_fleet, "/v1/admin/dump", {})
        assert bundle["role"] == "router"
        assert {node["name"] for node in bundle["healthz"]["nodes"]} \
            == {"node-0", "node-1"}
        assert "key_share" in bundle and "events" in bundle
        json.dumps(bundle)
        doc = _get(trace_fleet, "/v1/admin/events?limit=5")
        assert doc["stats"]["seen"] > 0

    def test_router_metrics_carry_node_labeled_slo_series(self, trace_fleet):
        self._submit_spread(trace_fleet, count=1)
        with urllib.request.urlopen(f"{trace_fleet}/v1/metrics",
                                    timeout=30) as resp:
            text = resp.read().decode()
        assert 'repro_slo_burn_rate{' in text
        assert 'node="node-0"' in text
