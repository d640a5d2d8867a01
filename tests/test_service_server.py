"""Tests for the JSON-over-HTTP front end (repro.service.server)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import emst
from repro.bvh import get_default_engine


def get(url):
    with urllib.request.urlopen(url, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def post(url, obj):
    req = urllib.request.Request(
        url, data=json.dumps(obj).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def test_healthz(api):
    status, body = get(f"{api}/v1/healthz")
    assert status == 200
    assert body["status"] == "ok"
    # The probe names the traversal engine the node resolved, so a node
    # that fell back from the compiled kernels to the reference engine is
    # visible.
    assert body["traversal"] == get_default_engine()


def test_job_round_trip_dataset(api):
    status, submitted = post(f"{api}/v1/jobs",
                             {"dataset": "Uniform100M2:300"})
    assert status == 202
    job_id = submitted["job_id"]
    status, result = get(f"{api}/v1/jobs/{job_id}?wait=60")
    assert status == 200
    assert result["status"] == "done"
    assert len(result["payload"]["edges"]) == 299
    assert result["payload"]["n_points"] == 300


def test_job_round_trip_inline_points(api, uniform_2d):
    direct = emst(uniform_2d)
    _, submitted = post(f"{api}/v1/jobs",
                        {"points": uniform_2d.tolist()})
    _, result = get(f"{api}/v1/jobs/{submitted['job_id']}?wait=60")
    assert result["status"] == "done"
    assert np.array_equal(np.asarray(result["payload"]["edges"]),
                          direct.edges)
    assert np.allclose(np.asarray(result["payload"]["weights"]),
                       direct.weights)


def test_hdbscan_over_http(api):
    _, submitted = post(f"{api}/v1/jobs",
                        {"dataset": "VisualVar10M2D:400",
                         "algorithm": "hdbscan",
                         "min_cluster_size": 10})
    _, result = get(f"{api}/v1/jobs/{submitted['job_id']}?wait=60")
    assert result["status"] == "done"
    assert result["payload"]["n_clusters"] >= 1
    assert len(result["payload"]["labels"]) == 400


def test_stats_reflect_cache_hits(api):
    for _ in range(2):
        _, submitted = post(f"{api}/v1/jobs", {"dataset": "Normal100M2:200"})
        _, result = get(f"{api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["status"] == "done"
    assert result["cache"]["result_hit"]
    status, stats = get(f"{api}/v1/stats")
    assert status == 200
    assert stats["jobs"]["done"] == 2
    assert stats["result_cache"]["hits"] == 1
    assert stats["scheduler"]["jobs_completed"] == 2


def test_pending_status_without_wait(api):
    _, submitted = post(f"{api}/v1/jobs", {"dataset": "Uniform100M3:2000"})
    status, body = get(f"{api}/v1/jobs/{submitted['job_id']}")
    assert status == 200
    assert body["status"] in ("pending", "running", "done")


def test_unknown_job_is_404(api):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{api}/v1/jobs/job-424242")
    assert excinfo.value.code == 404


def test_unknown_endpoint_is_404(api):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{api}/v2/jobs")
    assert excinfo.value.code == 404


def test_bad_json_is_400(api):
    req = urllib.request.Request(f"{api}/v1/jobs", data=b"not json{",
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30)
    assert excinfo.value.code == 400


def test_bad_spec_is_400(api):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{api}/v1/jobs", {"dataset": "Uniform100M2:50",
                                "algorithm": "kmeans"})
    assert excinfo.value.code == 400
    detail = json.loads(excinfo.value.read())
    assert detail["error"]["code"] == "bad_request"
    assert detail["error"]["retryable"] is False
    assert "algorithm" in detail["error"]["message"]


def test_failed_job_reported_over_http(api):
    # Valid at submit time, fails in the worker (hdbscan needs >= 2 points).
    _, submitted = post(f"{api}/v1/jobs", {"points": [[0.0, 0.0]],
                                           "algorithm": "hdbscan"})
    _, result = get(f"{api}/v1/jobs/{submitted['job_id']}?wait=60")
    assert result["status"] == "failed"
    assert result["error"]


def test_wrong_typed_fields_are_400(api):
    for body in ({"dataset": "Uniform100M2:50", "k_pts": "5"},
                 {"dataset": "Uniform100M2:50", "min_cluster_size": "3"},
                 {"dataset": "Uniform100M2:50", "priority": "high"}):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{api}/v1/jobs", body)
        assert excinfo.value.code == 400
        assert "integer" in \
            json.loads(excinfo.value.read())["error"]["message"]


def test_bad_dataset_spec_is_400(api):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(f"{api}/v1/jobs", {"dataset": "NoSuchDataset:100"})
    assert excinfo.value.code == 400
    assert "unknown dataset" in \
        json.loads(excinfo.value.read())["error"]["message"]


def test_wait_s_long_poll_alias(api):
    _, submitted = post(f"{api}/v1/jobs", {"dataset": "Uniform100M2:300"})
    status, body = get(f"{api}/v1/jobs/{submitted['job_id']}?wait_s=60")
    assert status == 200
    assert body["status"] == "done"


def test_bad_wait_s_is_400(api):
    _, submitted = post(f"{api}/v1/jobs", {"dataset": "Uniform100M2:300"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{api}/v1/jobs/{submitted['job_id']}?wait_s=soon")
    assert excinfo.value.code == 400


def test_huge_integer_points_are_400_not_500(api):
    # JSON integers are unbounded; converting one that overflows float64
    # raises OverflowError, which must surface as a client error and not
    # crash the handler (the connection would die with no response).
    body = json.dumps({"points": [[1, int("9" * 400)]]}).encode()
    req = urllib.request.Request(f"{api}/v1/jobs", data=body,
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30)
    assert excinfo.value.code == 400
    assert "points" in json.loads(excinfo.value.read())["error"]["message"]


def test_ragged_points_are_400(api):
    for points in ([[1.0, 2.0], [3.0]],            # ragged
                   [[1.0, "x"], [3.0, 4.0]],       # non-numeric
                   [[1.0, {"v": 2}]]):             # nested object
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{api}/v1/jobs", {"points": points})
        assert excinfo.value.code == 400


def test_x_repro_node_header_and_identity(api):
    with urllib.request.urlopen(f"{api}/v1/healthz", timeout=30) as resp:
        body = json.loads(resp.read())
        header = resp.headers.get("X-Repro-Node")
    assert header  # default identity is host:port
    assert body["node"] == header


def test_result_hit_body_is_served_without_encoding_its_payload(
        api, monkeypatch):
    """A finished job's body is its stored payload bytes spliced into the
    envelope: serving a result hit neither encodes nor decodes the
    payload, and every body is exactly ``json.dumps`` of what it holds."""
    def submit_and_read():
        _, submitted = post(f"{api}/v1/jobs", {"dataset": "Uniform100M2:300"})
        with urllib.request.urlopen(
                f"{api}/v1/jobs/{submitted['job_id']}?wait=60",
                timeout=120) as resp:
            return resp.read()

    dumps, loads = json.dumps, json.loads
    seen = []

    def spy_dumps(obj, *args, **kwargs):
        out = dumps(obj, *args, **kwargs)
        seen.append('"edges"' in out)
        return out

    def spy_loads(text, *args, **kwargs):
        seen.append(b'"edges"' in (text if isinstance(text, bytes)
                                   else text.encode()))
        return loads(text, *args, **kwargs)

    cold = submit_and_read()
    monkeypatch.setattr(json, "dumps", spy_dumps)
    monkeypatch.setattr(json, "loads", spy_loads)
    hit = submit_and_read()
    monkeypatch.undo()
    assert seen and not any(seen)  # the spies ran; none saw a payload
    assert loads(hit)["cache"]["result_hit"]
    for body in (cold, hit):
        assert body == dumps(loads(body)).encode()
