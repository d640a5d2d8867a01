"""Tests for the sampling profiler and resource telemetry
(repro.obs.profiler), the thread→phase registry (repro.timing) and the
``/v1/profile`` wire surface."""

import contextlib
import gc
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api.contract import ApiError, parse_profile_query
from repro.obs import MetricsRegistry
from repro.obs import profiler as profiler_module
from repro.obs.profiler import (
    DEFAULT_PROFILE_HZ,
    MAX_PROFILE_HZ,
    MAX_PROFILE_SECONDS,
    ResourceCollector,
    SamplingProfiler,
    empty_profile_doc,
    merge_profiles,
    render_collapsed,
)
from repro.service import Engine, JobSpec, canonical_payload_bytes
from repro.store import EncodedPayload
from repro.timing import (
    PhaseTimer,
    active_phases,
    phase_registry_size,
)

#: Engine phase names the trace layer emits — samples may only ever
#: attribute to these.
ENGINE_PHASES = {"resolve", "tree", "core", "mst", "linkage", "condense",
                 "tree_build", "compute", "encode"}


def _spin_in_phase(name, entered, release):
    """Target: hold ``name`` on the phase registry until released."""
    with PhaseTimer().phase(name):
        entered.set()
        release.wait(timeout=30)


@contextlib.contextmanager
def _idle_thread(name="idler"):
    """A phase-less thread for the sampler to observe (``sample_once``
    deliberately skips its calling thread)."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,), name=name)
    thread.start()
    try:
        yield thread
    finally:
        release.set()
        thread.join(timeout=10)


# --------------------------------------------------------- phase registry

class TestPhaseRegistry:
    def test_phase_visible_while_active_and_gone_after(self):
        ident = threading.get_ident()
        assert active_phases().get(ident) is None
        before = phase_registry_size()
        with PhaseTimer().phase("mst"):
            assert active_phases().get(ident) == "mst"
        assert active_phases().get(ident) is None
        assert phase_registry_size() == before

    def test_nested_phases_report_innermost(self):
        ident = threading.get_ident()
        timer = PhaseTimer()
        with timer.phase("compute"):
            with timer.phase("core"):
                assert active_phases().get(ident) == "core"
            assert active_phases().get(ident) == "compute"
        assert active_phases().get(ident) is None

    def test_exception_still_pops(self):
        ident = threading.get_ident()
        with pytest.raises(RuntimeError):
            with PhaseTimer().phase("mst"):
                raise RuntimeError("boom")
        assert active_phases().get(ident) is None

    def test_threads_are_isolated(self):
        entered, release = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin_in_phase, args=("tree_build", entered, release))
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert active_phases()[worker.ident] == "tree_build"
            assert active_phases().get(threading.get_ident()) is None
        finally:
            release.set()
            worker.join(timeout=10)
        assert worker.ident not in active_phases()


# ------------------------------------------------------ sampling profiler

class TestSamplingProfiler:
    def test_rejects_bad_hz(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            SamplingProfiler(reg, hz=0, auto_start=False)
        with pytest.raises(ValueError):
            SamplingProfiler(reg, hz=MAX_PROFILE_HZ + 1, auto_start=False)

    def test_sample_lands_in_the_active_phase(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, auto_start=False)
        entered, release = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin_in_phase, args=("mst", entered, release))
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert profiler.sample_once() >= 1
        finally:
            release.set()
            worker.join(timeout=10)
        doc = profiler.profile_doc()
        assert doc["enabled"] and doc["samples"] >= 1
        assert doc["phases"].get("mst", 0) >= 1
        mst_rows = [row for row in doc["stacks"] if row["phase"] == "mst"]
        assert mst_rows and all(row["stack"] for row in mst_rows)
        # frame tokens are collapsed-safe: no spaces or semicolons
        for row in doc["stacks"]:
            for frame in row["stack"]:
                assert " " not in frame and ";" not in frame

    def test_threads_outside_phases_are_unattributed(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, auto_start=False)
        with _idle_thread():
            assert profiler.sample_once() >= 1
        doc = profiler.profile_doc()
        assert doc["samples"] >= 1
        assert doc["in_phase_samples"] == 0
        samples = reg.counter(
            "repro_profile_samples_total", labels=("state",))
        assert samples.value(state="unattributed") >= 1

    def test_background_loop_fills_the_ring(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, hz=100.0)
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline \
                    and profiler.profile_doc()["samples"] < 3:
                time.sleep(0.02)
        finally:
            profiler.stop()
        assert profiler.profile_doc()["samples"] >= 3
        assert profiler.stats()["running"] is False

    def test_capture_clamps_and_reports_window(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, hz=50.0)
        try:
            doc = profiler.capture(0.3, hz=150.0)
        finally:
            profiler.stop()
        assert doc["hz"] == 150.0
        assert 0.25 <= doc["duration_s"] <= 2.0
        assert doc["samples"] >= 5  # ~45 expected at 150 Hz
        # seconds above the cap clamp instead of hanging the caller
        assert MAX_PROFILE_SECONDS < 60
        assert profiler.capture(-1.0)["samples"] == 0

    def test_capture_only_counts_its_own_window(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, auto_start=False)
        with _idle_thread():
            profiler.sample_once()  # stale ring record
            since = time.monotonic()
            doc = profiler.profile_doc(since=since)
            assert doc["samples"] == 0
            profiler.sample_once()
            assert profiler.profile_doc(since=since)["samples"] >= 1

    def test_stats_shape(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, auto_start=False)
        with _idle_thread():
            profiler.sample_once()
        stats = profiler.stats()
        assert stats["samples_total"] == \
            stats["in_phase_samples"] + stats["unattributed_samples"]
        assert stats["hz"] == DEFAULT_PROFILE_HZ
        assert stats["sampling_seconds"] > 0
        assert stats["ring_samples"] >= 1

    def test_sampling_seconds_gauge_is_scrapeable(self):
        reg = MetricsRegistry()
        profiler = SamplingProfiler(reg, auto_start=False)
        profiler.sample_once()  # seconds accrue even with no peer threads
        doc = reg.as_dict()
        (metric,) = [m for m in doc["metrics"]
                     if m["name"] == "repro_profile_sampling_seconds_total"]
        assert metric["samples"][0]["value"] > 0

    def test_collector_is_paused_while_other_threads_are_read(
            self, monkeypatch):
        real = sys._current_frames
        seen = []

        def recording():
            seen.append(gc.isenabled())
            return real()

        def collector_enabled():
            # Read between stack reads: another engine's sampler may be
            # running, and it pauses the collector while it reads.
            with profiler_module._READ_LOCK:
                return gc.isenabled()

        monkeypatch.setattr(sys, "_current_frames", recording)
        profiler = SamplingProfiler(MetricsRegistry(), auto_start=False)
        assert collector_enabled()
        with _idle_thread():
            assert profiler.sample_once() >= 1
        assert seen and not any(seen)
        assert collector_enabled()  # resumed afterwards
        gc.disable()
        try:
            profiler.sample_once()
            assert not collector_enabled()  # a paused collector stays paused
        finally:
            gc.enable()

    def test_collections_that_switch_threads_cannot_break_sampling(self):
        # A gc callback that releases the GIL, collections on almost every
        # allocation, threads that start and exit while stacks are read,
        # and two samplers reading at once: without the collector paused
        # for each whole read this deadlocks or crashes within seconds.
        # A subprocess, so either shows as its status.
        proc = subprocess.run(
            [sys.executable, "-c", _SWITCHING_COLLECTIONS, "3"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.split() == ["ok"]


SRC = str(Path(__file__).resolve().parents[1] / "src")

_SWITCHING_COLLECTIONS = """
import faulthandler, gc, sys, threading, time
faulthandler.dump_traceback_later(30, exit=True)  # a deadlock fails
from repro.obs.profiler import _other_thread_stacks

def switch_threads(phase, info):
    if phase == "stop":
        time.sleep(0)  # as any Python callback may, at a GIL switch

gc.callbacks.append(switch_threads)
gc.set_threshold(5, 1, 1)
stop = time.monotonic() + float(sys.argv[1])

def churn():
    while time.monotonic() < stop:
        thread = threading.Thread(target=lambda: [[]] * 3)
        thread.start()
        thread.join()

def sample():
    while time.monotonic() < stop:
        _other_thread_stacks()

threads = [threading.Thread(target=churn) for _ in range(3)]
threads += [threading.Thread(target=sample) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print("ok")
"""


# --------------------------------------------- collapsed render and merge

class TestCollapsedAndMerge:
    DOC = {"enabled": True, "hz": 17.0, "default_hz": 17.0,
           "duration_s": 1.0, "samples": 5, "in_phase_samples": 3,
           "threads": ["worker_0"], "phases": {"mst": 3},
           "stacks": [
               {"phase": "mst", "stack": ["a.py:f:1", "b.py:g:2"],
                "count": 3},
               {"phase": None, "stack": ["c.py:h:3"], "count": 2},
           ],
           "truncated_stacks": 0}

    def test_render_collapsed_lines(self):
        text = render_collapsed(self.DOC)
        lines = text.splitlines()
        assert lines[0] == "mst;a.py:f:1;b.py:g:2 3"
        assert lines[1] == "idle;c.py:h:3 2"

    def test_render_collapsed_empty_doc(self):
        assert render_collapsed(empty_profile_doc()) == ""

    def test_merge_tags_nodes_and_pools_counts(self):
        other = json.loads(json.dumps(self.DOC))  # deep copy
        other["phases"] = {"mst": 1, "core": 2}
        other["in_phase_samples"] = 3
        merged = merge_profiles({"n1": self.DOC, "n2": other})
        assert merged["enabled"] is True
        assert merged["samples"] == 10
        assert merged["in_phase_samples"] == 6
        assert merged["phases"] == {"mst": 4, "core": 2}
        assert {row["node"] for row in merged["stacks"]} == {"n1", "n2"}
        assert sorted(merged["threads"]) == \
            ["n1:worker_0", "n2:worker_0"]
        # node-tagged stacks render with the node as the root frame
        first = render_collapsed(merged).splitlines()[0]
        assert first.startswith(("n1;", "n2;"))

    def test_merge_of_disabled_nodes_stays_disabled(self):
        merged = merge_profiles({"n1": empty_profile_doc(),
                                 "n2": empty_profile_doc()})
        assert merged["enabled"] is False
        assert merged["samples"] == 0

    def test_merge_skips_malformed_entries(self):
        merged = merge_profiles({"ok": self.DOC, "bad": None})
        assert merged["samples"] == self.DOC["samples"]


# ------------------------------------------------------ engine attribution

def _mixed_bodies(n, count):
    # distinct sizes so no result-cache hit short-circuits the compute
    return [{"dataset": f"Uniform100M2:{n + 37 * i}",
             "algorithm": "mrd_emst", "k_pts": 4} for i in range(count)]


def _sample_while_running(engine, job_ids, interval=0.004):
    """Drive the profiler deterministically until every job finishes."""
    for job_id in job_ids:
        while True:
            try:
                engine.result(job_id, timeout=0.0)
                break
            except TimeoutError:
                engine.profiler.sample_once()
                time.sleep(interval)


class TestEngineAttribution:
    def test_thread_backend_attributes_in_job_samples(self):
        with Engine(max_workers=2) as engine:
            job_ids = [engine.submit(JobSpec.from_dict(body))
                       for body in _mixed_bodies(4000, 4)]
            _sample_while_running(engine, job_ids)
            doc = engine.profile()
        assert set(doc["phases"]) <= ENGINE_PHASES
        assert doc["in_phase_samples"] > 0
        # the acceptance bar: >= 80% of in-job samples (stacks inside
        # the executor) attribute to a named engine phase
        in_job = attributed = 0
        for row in doc["stacks"]:
            if any("executor.py" in frame for frame in row["stack"]):
                in_job += row["count"]
                if row["phase"] is not None:
                    attributed += row["count"]
        assert in_job > 0
        assert attributed / in_job >= 0.8, (attributed, in_job)

    def test_payload_encode_runs_in_the_encode_phase(self, monkeypatch):
        """What the sampler reads for a thread encoding a cold payload."""
        seen = []
        original = EncodedPayload.encode.__func__

        def recording(cls, payload):
            seen.append(active_phases().get(threading.get_ident()))
            return original(cls, payload)

        monkeypatch.setattr(EncodedPayload, "encode",
                            classmethod(recording))
        with Engine(max_workers=1) as engine:
            body = {"dataset": "Uniform100M2:500"}
            for _ in range(2):  # cold, then a result hit
                engine.result(engine.submit(JobSpec.from_dict(body)),
                              timeout=60.0)
        assert seen == ["encode"]

    def test_no_phase_registry_leak_after_engine_close(self):
        with Engine(max_workers=2) as engine:
            job_ids = [engine.submit(JobSpec.from_dict(body))
                       for body in _mixed_bodies(2000, 3)]
            for job_id in job_ids:
                assert engine.result(job_id, timeout=60.0) is not None
        assert phase_registry_size() == 0

    def test_profiling_does_not_change_payload_bytes(self):
        body = {"dataset": "Uniform100M2:3000", "algorithm": "mrd_emst",
                "k_pts": 4}
        with Engine(max_workers=1, obs=False) as engine:
            off = engine.result(engine.submit(JobSpec.from_dict(body)),
                                timeout=120.0)
        with Engine(max_workers=1) as engine:
            job_id = engine.submit(JobSpec.from_dict(body))
            _sample_while_running(engine, [job_id], interval=0.001)
            on = engine.result(job_id, timeout=120.0)
        assert canonical_payload_bytes(on.payload) == \
            canonical_payload_bytes(off.payload)

    def test_obs_off_engine_has_no_profiler(self):
        with Engine(max_workers=1, obs=False) as engine:
            assert engine.profiler is None
            assert engine.resources is None
            doc = engine.profile()
            assert doc["enabled"] is False and doc["samples"] == 0
            dump = engine.dump()
            assert dump["profile"] is None
            assert dump["resources"] is None

    def test_dump_carries_profile_and_resources(self):
        with Engine(max_workers=1) as engine:
            engine.profiler.sample_once()
            dump = engine.dump()
        assert dump["profile"]["samples_total"] >= 1
        assert dump["resources"]["parent"]["pid"] > 0


# ------------------------------------------------------- resource collector

class TestResourceCollector:
    def test_parent_rss_and_cpu_gauges(self):
        reg = MetricsRegistry()
        collector = ResourceCollector(reg)
        try:
            doc = reg.as_dict()
            by_name = {m["name"]: m for m in doc["metrics"]}
            rss = by_name["repro_process_rss_bytes"]["samples"]
            parent = [s for s in rss
                      if s["labels"] == {"role": "parent"}]
            assert parent and parent[0]["value"] > 0
            cpu = by_name["repro_process_cpu_seconds"]["samples"]
            assert any(s["labels"] == {"role": "parent"} and
                       s["value"] >= 0 for s in cpu)
        finally:
            collector.close()

    def test_gc_pauses_land_in_histogram(self):
        import gc
        reg = MetricsRegistry()
        collector = ResourceCollector(reg)
        try:
            gc.collect()
            snap = collector.snapshot()
        finally:
            collector.close()
        assert snap["gc"]["collections"] >= 1
        assert snap["gc"]["pause_seconds_sum"] >= 0.0
        assert snap["parent"]["rss_bytes"] > 0

    def test_disabled_registry_installs_no_gc_hook(self):
        import gc
        before = len(gc.callbacks)
        collector = ResourceCollector(MetricsRegistry(enabled=False))
        assert len(gc.callbacks) == before
        collector.close()

    def test_close_is_idempotent(self):
        import gc
        collector = ResourceCollector(MetricsRegistry())
        before = len(gc.callbacks)
        collector.close()
        collector.close()
        assert len(gc.callbacks) == before - 1


# ------------------------------------------------------------ wire surface

class TestProfileQueryValidation:
    def test_defaults(self):
        assert parse_profile_query("") == \
            {"seconds": None, "hz": None, "format": "collapsed"}

    def test_parses_values(self):
        opts = parse_profile_query("seconds=2.5&hz=97&format=json")
        assert opts == {"seconds": 2.5, "hz": 97.0, "format": "json"}

    @pytest.mark.parametrize("query", [
        "seconds=nan-ish", "seconds=-1", "seconds=31",
        "hz=0", "hz=200", "hz=wat", "format=xml",
    ])
    def test_bad_values_are_400(self, query):
        with pytest.raises(ApiError) as err:
            parse_profile_query(query)
        assert err.value.status == 400


class TestProfileEndpoint:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.read().decode(), resp.headers.get_content_type()

    def test_json_document(self, api):
        body, ctype = self._get(f"{api}/v1/profile?format=json")
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["enabled"] is True
        assert doc["default_hz"] == DEFAULT_PROFILE_HZ

    def test_collapsed_is_default_format(self, api):
        body, ctype = self._get(f"{api}/v1/profile?seconds=0.2&hz=150")
        assert ctype == "text/plain"
        for line in body.splitlines():
            frames, _, count = line.rpartition(" ")
            assert frames and int(count) >= 1

    def test_bad_query_is_400(self, api):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(f"{api}/v1/profile?seconds=99")
        assert err.value.code == 400

    def test_obs_off_server_answers_disabled(self):
        from repro.service.server import create_server

        engine = Engine(max_workers=1, obs=False)
        server = create_server(engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            body, _ = self._get(
                f"http://{host}:{port}/v1/profile?format=json")
            doc = json.loads(body)
            assert doc["enabled"] is False and doc["samples"] == 0
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_router_fans_out_and_tags_nodes(self, api):
        from repro.cluster import ClusterRouter, Node, create_router_server

        router = ClusterRouter([Node(api, name="n1")])
        server = create_router_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            body, _ = self._get(
                f"http://{host}:{port}/v1/profile?format=json")
            doc = json.loads(body)
            assert doc["role"] == "router"
            assert doc["enabled"] is True
            assert doc["nodes"]["n1"]["enabled"] is True
            assert all(row["node"] == "n1" for row in doc["stacks"])
        finally:
            server.shutdown()
            server.server_close()
            router.close()


# ------------------------------------------------------------ CLI surface

class TestProfileCLI:
    def test_profile_command_writes_collapsed(self, api, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "prof.collapsed"
        code = main(["profile", api, "--seconds", "0.3", "--hz", "150",
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "profile of" in captured
        assert "hot functions" in captured
        assert out.read_text().strip()

    def test_profile_command_ring_read(self, api, capsys):
        from repro.cli import main

        assert main(["profile", api, "--seconds", "0"]) == 0
        assert "samples" in capsys.readouterr().out

    def test_profile_command_obs_off_degrades(self, capsys):
        from repro.cli import main
        from repro.service.server import create_server

        engine = Engine(max_workers=1, obs=False)
        server = create_server(engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code = main(["profile", f"http://{host}:{port}",
                         "--seconds", "0"])
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
        assert code == 1
        assert "REPRO_OBS=off" in capsys.readouterr().err

    def test_profile_command_unreachable_server(self, capsys):
        from repro.cli import main

        code = main(["profile", "http://127.0.0.1:9",
                     "--seconds", "0"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_degrades_on_docs_without_metrics(self, capsys,
                                                  monkeypatch):
        from repro import cli

        class FakeClient:
            url = "http://fake:1"

            def __init__(self, *args, **kwargs):
                pass

            def metrics_json(self):
                return {"status": "ok"}  # older server: no series at all

        import repro.client
        monkeypatch.setattr(repro.client, "Client", FakeClient)
        code = cli.main(["top", "http://fake:1", "--iterations", "1"])
        assert code == 1
        assert "no metrics series" in capsys.readouterr().err

    def test_slo_degrades_on_docs_without_metrics(self, capsys,
                                                  monkeypatch):
        from repro import cli

        class FakeClient:
            url = "http://fake:1"

            def __init__(self, *args, **kwargs):
                pass

            def metrics_json(self):
                return {"role": "router", "nodes": {"n1": {"x": 1}}}

        import repro.client
        monkeypatch.setattr(repro.client, "Client", FakeClient)
        code = cli.main(["slo", "http://fake:1"])
        assert code == 1
        assert "no SLO series" in capsys.readouterr().err

    def test_render_helpers_tolerate_sparse_docs(self, capsys):
        from repro.cli import _render_metrics_doc, _slo_rows

        assert _slo_rows({}) == []
        assert _slo_rows({"metrics": [{"name": "repro_slo_target"}]}) == []
        _render_metrics_doc("node", {"metrics": [
            {"name": "x"},  # no type, no samples
            {"type": "histogram", "name": "h", "samples": [{}]},
            {"type": "counter", "name": "c", "samples": [{}]},
        ]})
        assert "-- node" in capsys.readouterr().out
