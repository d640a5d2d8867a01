"""Tests for the JSON-over-HTTP front end (repro.service.server)."""

import json
import math
import urllib.error
import urllib.request

import numpy as np
import orjson
import pytest

from repro import emst
from repro.api.contract import WireAPI
from repro.client import Client
from repro.bvh import get_default_engine
from repro.service import JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec


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


def post_raw(url, body):
    """POST ``body`` bytes; returns ``(status, error envelope)`` of the
    refusal it must get."""
    req = urllib.request.Request(url, data=body,
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30)
    return excinfo.value.code, json.loads(excinfo.value.read())["error"]


def test_huge_integer_points_are_400_not_500(api):
    # JSON integers are unbounded; one that overflows a double must
    # surface as a client error and not crash the handler (the connection
    # would die with no response).  The body parser refuses it.
    body = json.dumps({"points": [[1, int("9" * 400)]]}).encode()
    status, error = post_raw(f"{api}/v1/jobs", body)
    assert (status, error["code"]) == (400, "bad_request")


@pytest.mark.parametrize("body", [
    b"[" * 100_000,                               # deeper than json recurses
    b'{"points": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"points": [[0.5, NaN], [1.0, 2.0]]}',
    b'{"points": [[0.5, Infinity], [1.0, 2.0]]}',
    b'{"points": [[0.5, -Infinity], [1.0, 2.0]]}',
    b'{"points": [[0.5, 1e400], [1.0, 2.0]]}',
    b'{"points": [[0.5, 1.0], [1.0, 2.0]]',       # truncated
    b'{"dataset": "\xff"}',                      # not UTF-8
], ids=["unclosed nesting", "deep nesting", "NaN", "Infinity",
        "-Infinity", "overflow", "truncated", "bad UTF-8"])
def test_bad_bodies_are_400_not_500(api, body):
    # A body of 100,000 brackets overflowed json's recursion, which the
    # HTTP layer answered with a retryable 500; non-finite literals were
    # refused only by the points check.  Each is the client's error.
    status, error = post_raw(f"{api}/v1/jobs", body)
    assert (status, error["code"], error["retryable"]) == \
        (400, "bad_request", False)


def test_request_bodies_are_parsed_by_orjson_bit_for_bit(api, monkeypatch):
    """Inline points of any finite doubles arrive bit-equal to what
    ``json.loads`` reads, and stdlib ``json`` parses no request body."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64)
    doubles = bits.view(np.float64)
    edges = np.array([5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -0.0, 0.0, 1e-310])
    values = np.concatenate([doubles[np.isfinite(doubles)], edges,
                             rng.standard_normal(500) * 1e10])
    raw = json.dumps({"points": values.reshape(-1, 1).tolist()}).encode()
    parsed = WireAPI._decode(raw)
    expected = np.asarray(json.loads(raw)["points"], dtype=np.float64)
    assert np.array_equal(
        np.asarray(parsed["points"], dtype=np.float64).view(np.uint64),
        expected.view(np.uint64))

    loads = json.loads
    bodies = []

    def spy_loads(text, *args, **kwargs):
        bodies.append(b'"points"' in (text if isinstance(text, bytes)
                                      else text.encode()))
        return loads(text, *args, **kwargs)

    points = rng.random((50, 2))
    monkeypatch.setattr(json, "loads", spy_loads)
    status, submitted = post(f"{api}/v1/jobs", {"points": points.tolist()})
    monkeypatch.undo()
    assert status == 202 and bodies and not any(bodies)
    _, result = get(f"{api}/v1/jobs/{submitted['job_id']}?wait=60")
    assert np.array_equal(np.asarray(result["payload"]["edges"]),
                          emst(points).edges)


def test_ragged_points_are_400(api):
    for points in ([[1.0, 2.0], [3.0]],            # ragged
                   [[1.0, "x"], [3.0, 4.0]],       # non-numeric
                   [[1.0, {"v": 2}]]):             # nested object
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{api}/v1/jobs", {"points": points})
        assert excinfo.value.code == 400


def test_non_finite_answer_keeps_infinity_over_http(api):
    """HDBSCAN* over duplicated points has λ = ∞ rows, which orjson
    would write as ``null``; cold and as a result hit, the served body
    keeps all 200 as ``Infinity`` and decodes, with ``json.loads`` and
    through ``Client``, to the in-process answer."""
    points = np.repeat(np.random.default_rng(7).random((40, 2)), 5, axis=0)
    spec = {"points": points.tolist(), "algorithm": "hdbscan", "k_pts": 4}
    direct = execute_spec(make_exec_spec(JobSpec.from_dict(spec),
                                         points=points))["payload"]
    for hit in (False, True):
        _, submitted = post(f"{api}/v1/jobs", spec)
        with urllib.request.urlopen(
                f"{api}/v1/jobs/{submitted['job_id']}?wait=60",
                timeout=120) as resp:
            body = json.loads(resp.read())
        assert body["cache"]["result_hit"] is hit
        assert body["payload"]["condensed"]["lambda_val"].count(
            math.inf) == 200
        assert canonical_payload_bytes(body["payload"]) == \
            canonical_payload_bytes(direct)
        polled = Client(api).poll(submitted["job_id"])
        assert canonical_payload_bytes(polled["payload"]) == \
            canonical_payload_bytes(direct)


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
    payload, with stdlib ``json`` or with ``orjson``."""
    def submit_and_read():
        _, submitted = post(f"{api}/v1/jobs", {"dataset": "Uniform100M2:300"})
        with urllib.request.urlopen(
                f"{api}/v1/jobs/{submitted['job_id']}?wait=60",
                timeout=120) as resp:
            return resp.read()

    seen = []

    def spies(module):
        dumps, loads = module.dumps, module.loads

        def spy_dumps(obj, *args, **kwargs):
            out = dumps(obj, *args, **kwargs)
            seen.append(b'"edges"' in (out if isinstance(out, bytes)
                                       else out.encode()))
            return out

        def spy_loads(text, *args, **kwargs):
            seen.append(b'"edges"' in (text if isinstance(text, bytes)
                                       else text.encode()))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(module, "dumps", spy_dumps)
        monkeypatch.setattr(module, "loads", spy_loads)

    cold = submit_and_read()
    spies(json)
    spies(orjson)
    hit = submit_and_read()
    monkeypatch.undo()
    assert seen and not any(seen)  # the spies ran; none saw a payload
    assert json.loads(hit)["cache"]["result_hit"]
    # Both bodies carry the one stored encoding verbatim.
    payload = orjson.dumps(json.loads(cold)["payload"])
    assert payload in cold and payload in hit
