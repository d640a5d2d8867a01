"""Tests for the observability layer (repro.obs)."""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterRouter, Node
from repro.cluster.server import create_router_server
from repro.metrics import Histogram
from repro.obs import (
    TRACE_HEADER,
    EventLog,
    MetricsRegistry,
    format_trace,
    from_header,
    histogram_from_sample,
    make_span,
    make_trace,
    new_trace_id,
    parse_prometheus_text,
    render_prometheus,
    to_header,
)
from repro.service import Engine, JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec
from repro.service.server import create_server


def _span(trace, name):
    """The first top-level span of ``trace`` called ``name``."""
    return next(span for span in trace["spans"] if span["name"] == name)


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        jobs = reg.counter("repro_t_jobs_total", "jobs")
        jobs.inc()
        jobs.inc(3)
        assert jobs.value() == 4.0

    def test_labeled_counter_children_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_t_lookups_total", labels=("tier", "out"))
        fam.inc(tier="tree", out="hit")
        fam.inc(2, tier="tree", out="miss")
        assert fam.value(tier="tree", out="hit") == 1.0
        assert fam.value(tier="tree", out="miss") == 2.0

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_t_neg_total")
        with pytest.raises(ValueError):
            fam.inc(-1)

    def test_gauge_set(self):
        reg = MetricsRegistry()
        depth = reg.gauge("repro_t_depth")
        depth.set(7)
        depth.set(3)
        assert depth.value() == 3.0

    def test_fn_gauge_collected_at_scrape(self):
        reg = MetricsRegistry()
        state = {"n": 5}
        reg.gauge("repro_t_live", fn=lambda: state["n"])
        doc = reg.as_dict()
        (metric,) = [m for m in doc["metrics"] if m["name"] == "repro_t_live"]
        assert metric["samples"] == [{"labels": {}, "value": 5.0}]
        state["n"] = 9
        doc = reg.as_dict()
        (metric,) = [m for m in doc["metrics"] if m["name"] == "repro_t_live"]
        assert metric["samples"][0]["value"] == 9.0

    def test_histogram_observe_and_quantile(self):
        reg = MetricsRegistry()
        fam = reg.histogram("repro_t_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5):
            fam.observe(value)
        hist = fam.histogram()
        assert hist.count == 4
        assert 0.0 < hist.quantile(0.5) <= 0.1
        assert 0.1 < hist.quantile(0.99) <= 1.0

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_t_total", "help", labels=("x",))
        b = reg.counter("repro_t_total", "help", labels=("x",))
        assert a is b

    def test_registration_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_total", labels=("x",))
        with pytest.raises(ValueError):
            reg.gauge("repro_t_total")
        with pytest.raises(ValueError):
            reg.counter("repro_t_total", labels=("y",))

    def test_bad_metric_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name!")

    def test_disabled_registry_noops(self):
        reg = MetricsRegistry(enabled=False)
        fam = reg.counter("repro_t_total")
        fam.inc(10)
        hist = reg.histogram("repro_t_seconds")
        hist.observe(0.5)
        assert fam.value() == 0.0
        assert hist.histogram().count == 0

    def test_unlabeled_family_scrapes_zero_before_traffic(self):
        # A counter that has never fired must still expose a zero sample,
        # so dashboards see the series from the first scrape.
        reg = MetricsRegistry()
        reg.counter("repro_t_failed_total", "failures")
        parsed = parse_prometheus_text(reg.render_prometheus())
        assert parsed["repro_t_failed_total"] == [({}, 0.0)]

    def test_prometheus_render_parse_round_trip(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_t_total", labels=("tier",))
        fam.inc(2, tier="tree")
        hist = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = reg.render_prometheus()
        parsed = parse_prometheus_text(text)
        assert ({"tier": "tree"}, 2.0) in parsed["repro_t_total"]
        buckets = {labels["le"]: value
                   for labels, value in parsed["repro_t_seconds_bucket"]}
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 2.0}
        assert parsed["repro_t_seconds_count"] == [({}, 2.0)]

    def test_multi_document_merge_keeps_one_type_block(self):
        # The fleet scrape merges router + node documents: one HELP/TYPE
        # block per family, node samples distinguished by a node= label.
        node_a, node_b = MetricsRegistry(), MetricsRegistry()
        node_a.counter("repro_t_total").inc(1)
        node_b.counter("repro_t_total").inc(2)
        text = render_prometheus([({"node": "a"}, node_a.as_dict()),
                                  ({"node": "b"}, node_b.as_dict())])
        assert text.count("# TYPE repro_t_total counter") == 1
        parsed = parse_prometheus_text(text)
        assert sorted(parsed["repro_t_total"], key=str) == [
            ({"node": "a"}, 1.0), ({"node": "b"}, 2.0)]

    def test_histogram_from_sample_round_trip(self):
        reg = MetricsRegistry()
        fam = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        fam.observe(0.05)
        doc = reg.as_dict()
        (metric,) = [m for m in doc["metrics"]
                     if m["name"] == "repro_t_seconds"]
        hist = histogram_from_sample(metric["samples"][0])
        assert isinstance(hist, Histogram)
        assert hist.count == 1


class TestTrace:
    def test_header_round_trip(self):
        trace = make_trace(spans=[make_span("submit", node="n0", job="j1")])
        assert from_header(to_header(trace)) == trace

    def test_trace_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()
        assert new_trace_id().startswith("tr-")

    def test_from_header_rejects_garbage(self):
        assert from_header(None) is None
        assert from_header("") is None
        assert from_header("not json{") is None
        assert from_header(json.dumps(["wrong", "shape"])) is None
        assert from_header(json.dumps({"trace_id": "t"})) is None

    def test_from_header_rejects_oversize(self):
        trace = make_trace(spans=[
            make_span("x", filler="y" * 70000)])
        assert from_header(to_header(trace)) is None

    def test_from_header_rejects_span_flood(self):
        trace = make_trace(spans=[make_span(f"s{i}") for i in range(1000)])
        assert from_header(to_header(trace)) is None

    def test_make_span_meta_and_children(self):
        child = make_span("inner", duration_s=0.1)
        span = make_span("outer", node="n0", children=[child], attempt=2)
        assert span["meta"] == {"attempt": 2}
        assert span["children"] == [child]
        assert "meta" not in child and "children" not in child

    def test_format_trace_renders_span_tree(self):
        trace = make_trace(spans=[
            make_span("route", node="n1", outcome="accepted"),
            make_span("executed", node="n1", duration_s=0.02,
                      children=[make_span("mst", node="n1",
                                          duration_s=0.01)])])
        text = format_trace(trace)
        assert trace["trace_id"] in text
        for token in ("route", "executed", "mst", "outcome=accepted"):
            assert token in text


class TestEventLog:
    def test_sampling_is_deterministic(self):
        log = EventLog(sample=0.5, max_buffer=1000)
        kept = sum(log.emit("e", i=i) for i in range(100))
        assert kept == 50
        assert log.stats()["sampled_out"] == 50

    def test_full_sampling_keeps_everything(self):
        log = EventLog(sample=1.0)
        assert all(log.emit("e") for _ in range(10))
        assert log.stats()["emitted"] == 10

    def test_buffer_is_bounded(self):
        log = EventLog(max_buffer=4)
        for i in range(10):
            log.emit("e", i=i)
        recent = log.recent()
        assert len(recent) == 4
        assert [r["i"] for r in recent] == [6, 7, 8, 9]

    def test_stream_receives_json_lines(self):
        stream = io.StringIO()
        log = EventLog(stream=stream)
        log.emit("http_access", path="/v1/jobs", code=202)
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["event"] == "http_access"
        assert record["code"] == 202


class TestEngineTracing:
    def _run(self, engine, body):
        job_id = engine.submit(JobSpec.from_dict(body))
        result = engine.result(job_id, timeout=60.0)
        assert result.status.value == "done", result.error
        return result

    def test_job_result_carries_span_tree(self):
        body = {"dataset": "Uniform100M2:300", "algorithm": "mrd_emst",
                "k_pts": 4}
        with Engine(max_workers=1, obs=True) as engine:
            result = self._run(engine, body)
        names = [span["name"] for span in result.trace["spans"]]
        assert names == ["submit", "queued", "executed", "served"]
        executed = _span(result.trace, "executed")
        assert executed["duration_s"] > 0
        phases = [child["name"] for child in executed["children"]]
        assert "mst" in phases
        counters = executed["meta"]["counters"]
        assert counters["distance_evals"] > 0

    def test_trace_survives_json_round_trip(self):
        with Engine(max_workers=1, obs=True) as engine:
            result = self._run(engine, {"dataset": "Uniform100M2:310"})
        wire = json.loads(json.dumps(result.to_dict()))
        assert wire["trace"] == result.trace

    def test_obs_off_produces_no_trace(self):
        with Engine(max_workers=1, obs=False) as engine:
            result = self._run(engine, {"dataset": "Uniform100M2:320"})
        assert result.trace is None

    def test_canonical_bytes_identical_with_and_without_obs(self):
        body = {"dataset": "Uniform100M2:330", "algorithm": "mrd_emst",
                "k_pts": 4}
        with Engine(max_workers=1, obs=True) as on:
            traced = self._run(on, body)
        with Engine(max_workers=1, obs=False) as off:
            plain = self._run(off, body)
        assert traced.trace is not None and plain.trace is None
        assert canonical_payload_bytes(traced.payload) == \
            canonical_payload_bytes(plain.payload)

    def test_trace_marks_replayed_phases_on_result_hit(self):
        body = {"dataset": "Uniform100M2:340"}
        with Engine(max_workers=1, obs=True) as engine:
            cold = self._run(engine, body)
            hit = self._run(engine, body)
        # The cold job's one payload encode is its own executed phase.
        (encode,) = [child for child in _span(cold.trace, "executed")
                     ["children"] if child["name"] == "encode"]
        assert encode["duration_s"] > 0
        assert "meta" not in encode  # executed here, not replayed
        assert hit.cache["result_hit"]
        executed = _span(hit.trace, "executed")
        assert all(child["meta"].get("replayed")
                   for child in executed["children"])
        # A hit serves the stored bytes: nothing is encoded again.
        assert "encode" not in hit.timings
        assert canonical_payload_bytes(hit.payload) == \
            canonical_payload_bytes(cold.payload)

    def test_hdbscan_post_processing_phases_are_traced(self):
        body = {"dataset": "Uniform100M2:370", "algorithm": "hdbscan",
                "k_pts": 4}
        post = ("linkage", "condense")
        with Engine(max_workers=1, obs=True) as engine:
            cold = self._run(engine, body)
            hit = self._run(engine, body)
            fam = engine.registry.histogram("repro_phase_seconds",
                                            labels=("phase",))
            # observed once, for the cold run; the hit replays them
            assert [fam.histogram(phase=name).count for name in post] == \
                [1, 1]
        executed = {child["name"]: child for child in
                    _span(cold.trace, "executed")["children"]}
        replayed = {child["name"]: child for child in
                    _span(hit.trace, "executed")["children"]}
        for name in post:
            assert executed[name]["duration_s"] > 0
            assert "meta" not in executed[name]
            assert replayed[name]["meta"]["replayed"]
        # Timings are not part of the answer.
        phases = cold.payload["phases"]
        assert list(phases)[-2:] == list(post)
        bare = dict(cold.payload, phases={
            k: v for k, v in phases.items() if k not in post})
        assert canonical_payload_bytes(bare) == \
            canonical_payload_bytes(cold.payload) == \
            canonical_payload_bytes(hit.payload)

    def test_upstream_trace_context_is_prepended(self):
        parent = make_trace(spans=[make_span("route", node="router",
                                             outcome="accepted")])
        with Engine(max_workers=1, obs=True) as engine:
            job_id = engine.submit(
                JobSpec.from_dict({"dataset": "Uniform100M2:350"}),
                trace=parent)
            result = engine.result(job_id, timeout=60.0)
        assert result.trace["trace_id"] == parent["trace_id"]
        assert result.trace["spans"][0]["name"] == "route"

    def test_phase_histograms_skip_replayed_work(self):
        body = {"dataset": "Uniform100M2:360"}
        with Engine(max_workers=1, obs=True) as engine:
            self._run(engine, body)
            fam = engine.registry.histogram("repro_phase_seconds",
                                            labels=("phase",))
            cold = fam.histogram(phase="mst").count
            assert fam.histogram(phase="encode").count == 1
            self._run(engine, body)  # result hit: phases replayed, not run
            assert fam.histogram(phase="mst").count == cold
            assert fam.histogram(phase="encode").count == 1


class TestMetricsEndpoint:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read().decode(), resp.headers.get("Content-Type", "")

    def _post_job(self, api, body, headers=None):
        request = urllib.request.Request(
            f"{api}/v1/jobs", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json", **(headers or {})})
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    def _await(self, api, job_id):
        body, _ = self._get(f"{api}/v1/jobs/{job_id}?wait_s=60")
        result = json.loads(body)
        assert result["status"] == "done", result.get("error")
        return result

    def test_prometheus_scrape_is_parseable(self, api):
        accepted = self._post_job(api, {"dataset": "Uniform100M2:300"})
        self._await(api, accepted["job_id"])
        text, content_type = self._get(f"{api}/v1/metrics")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        parsed = parse_prometheus_text(text)
        assert parsed["repro_jobs_completed_total"] == [({}, 1.0)]
        # Per-tier cache lookup counters are all present.
        tiers = {(labels["tier"], labels["level"])
                 for labels, _ in parsed["repro_cache_lookups_total"]}
        assert ("tree", "memory") in tiers and ("result", "disk") in tiers
        # Job latency is a computable histogram: buckets + sum + count.
        buckets = [value for labels, value
                   in parsed["repro_job_seconds_bucket"]
                   if labels.get("algorithm") == "emst"]
        assert buckets[-1] == 1.0  # +Inf cumulative count
        assert parsed["repro_job_seconds_count"] == \
            [({"algorithm": "emst"}, 1.0)]

    def test_json_scrape_yields_computable_quantiles(self, api):
        accepted = self._post_job(api, {"dataset": "Uniform100M2:305"})
        self._await(api, accepted["job_id"])
        body, content_type = self._get(f"{api}/v1/metrics?format=json")
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        (metric,) = [m for m in doc["metrics"]
                     if m["name"] == "repro_job_seconds"]
        hist = histogram_from_sample(metric["samples"][0])
        assert hist.count == 1
        assert 0.0 < hist.quantile(0.5) <= hist.quantile(0.99)

    def test_unknown_format_is_a_400(self, api):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{api}/v1/metrics?format=xml")
        assert excinfo.value.code == 400

    def test_trace_header_is_adopted(self, api):
        parent = make_trace(spans=[make_span("route", node="router",
                                             outcome="accepted")])
        accepted = self._post_job(api, {"dataset": "Uniform100M2:315"},
                                  headers={TRACE_HEADER: to_header(parent)})
        result = self._await(api, accepted["job_id"])
        assert result["trace"]["trace_id"] == parent["trace_id"]
        assert result["trace"]["spans"][0]["name"] == "route"

    def test_stats_shape_is_untouched_by_instrumentation(self, api):
        # /v1/stats is test-pinned elsewhere; here just assert the
        # registry-backed reimplementation still answers alongside /v1/metrics.
        accepted = self._post_job(api, {"dataset": "Uniform100M2:325"})
        self._await(api, accepted["job_id"])
        body, _ = self._get(f"{api}/v1/stats")
        stats = json.loads(body)
        assert stats["scheduler"]["jobs_completed"] == 1
        assert stats["jobs"]["done"] == 1


@pytest.fixture
def obs_fleet(tmp_path):
    """Three live nodes + a router HTTP server; yields a handle."""
    engines, servers = [], []
    for i in range(3):
        engine = Engine(max_workers=1, store_dir=str(tmp_path / f"node-{i}"))
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

    class Fleet:
        pass

    handle = Fleet()
    handle.router = router
    handle.base = (f"http://127.0.0.1:{router_server.server_address[1]}")
    handle.down = set()

    def kill(name):
        index = int(name.rsplit("-", 1)[1])
        servers[index].shutdown()
        servers[index].server_close()
        engines[index].close()
        handle.down.add(name)

    handle.kill = kill
    try:
        yield handle
    finally:
        router_server.shutdown()
        router_server.server_close()
        for i, server in enumerate(servers):
            if f"node-{i}" not in handle.down:
                server.shutdown()
                server.server_close()
                engines[i].close()
        router.close()


def _spec_owned_by(router, name):
    """A dataset body whose ring primary is node ``name``."""
    for n in range(300, 400):
        body = {"dataset": f"Uniform100M2:{n}"}
        fp = router.fingerprint(JobSpec.from_dict(body))
        if router.ring.node_for(fp).name == name:
            return body
    raise AssertionError(f"no probe spec owned by {name}")


class TestRouterTracing:
    def test_routed_trace_shows_router_and_node_spans(self, obs_fleet):
        accepted = obs_fleet.router.submit({"dataset": "Uniform100M2:300"})
        result, node = obs_fleet.router.job(accepted["job_id"], wait_s=60.0)
        assert result["status"] == "done", result.get("error")
        spans = result["trace"]["spans"]
        names = [span["name"] for span in spans]
        assert names == ["route", "submit", "queued", "executed", "served"]
        assert spans[0]["node"] == node
        assert spans[0]["meta"]["outcome"] == "accepted"
        executed = _span(result["trace"], "executed")
        assert executed["meta"]["counters"]["distance_evals"] > 0

    def test_failover_trace_records_failed_hop(self, obs_fleet):
        victim = "node-1"
        body = _spec_owned_by(obs_fleet.router, victim)
        obs_fleet.kill(victim)
        accepted = obs_fleet.router.submit(dict(body))
        assert accepted["node"] != victim
        result, _ = obs_fleet.router.job(accepted["job_id"], wait_s=60.0)
        assert result["status"] == "done", result.get("error")
        hops = [span for span in result["trace"]["spans"]
                if span["name"] == "route"]
        assert [hop["node"] for hop in hops] == \
            [victim, accepted["node"]]
        assert hops[0]["meta"]["outcome"] == "unavailable"
        assert "error" in hops[0]["meta"]
        assert hops[1]["meta"]["outcome"] == "accepted"

    def test_recovery_trace_records_lost_node_and_new_hop(self, obs_fleet):
        victim = "node-2"
        body = _spec_owned_by(obs_fleet.router, victim)
        accepted = obs_fleet.router.submit(dict(body))
        assert accepted["node"] == victim
        obs_fleet.router.job(accepted["job_id"], wait_s=60.0)
        obs_fleet.kill(victim)
        result, node = obs_fleet.router.job(accepted["job_id"], wait_s=60.0)
        assert node != victim
        assert result["status"] == "done", result.get("error")
        names = [span["name"] for span in result["trace"]["spans"]]
        lost = names.index("lost")
        assert result["trace"]["spans"][lost]["node"] == victim
        # A fresh route hop follows the loss marker.
        assert "route" in names[lost:]
        # Traces never leak into the canonical payload.
        reference = execute_spec(
            make_exec_spec(JobSpec.from_dict(body)))["payload"]
        assert canonical_payload_bytes(result["payload"]) == \
            canonical_payload_bytes(reference)

    def test_fleet_scrape_relabels_node_series(self, obs_fleet):
        accepted = obs_fleet.router.submit({"dataset": "Uniform100M2:305"})
        obs_fleet.router.job(accepted["job_id"], wait_s=60.0)
        with urllib.request.urlopen(f"{obs_fleet.base}/v1/metrics",
                                    timeout=30) as resp:
            text = resp.read().decode()
        assert text.count("# TYPE repro_jobs_completed_total counter") == 1
        parsed = parse_prometheus_text(text)
        completed = {labels["node"]: value for labels, value
                     in parsed["repro_jobs_completed_total"]}
        assert set(completed) == {"node-0", "node-1", "node-2"}
        assert sum(completed.values()) == 1.0
        # Router-side series carry no node label.
        assert parsed["repro_router_jobs_routed_total"] == [({}, 1.0)]

    def test_fleet_json_scrape_nests_node_documents(self, obs_fleet):
        with urllib.request.urlopen(
                f"{obs_fleet.base}/v1/metrics?format=json",
                timeout=30) as resp:
            doc = json.loads(resp.read())
        assert doc["role"] == "router"
        assert set(doc["nodes"]) == {"node-0", "node-1", "node-2"}
        for node_doc in doc["nodes"].values():
            assert "metrics" in node_doc
