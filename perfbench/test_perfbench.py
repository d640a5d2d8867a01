"""Self-tests of the benchmark's own arithmetic, naming and oracle check.

Run with ``python -m pytest perfbench -q``.  None of them starts a server.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import analysis
from perfbench.analysis import (
    layer_metrics,
    metric_name,
    samples_beyond,
    self_time,
    tail_percentile,
    union_length,
)

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n, expected", [(1, 50), (19, 50), (20, 52),
                                         (37, 74), (300, 96), (1000, 99)])
def test_tail_percentile_pins(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", range(20, 401, 7))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    p = tail_percentile(n)
    assert samples_beyond(values, p) >= 10
    assert samples_beyond(values, p + 1) < 10


def test_tail_percentile_below_twenty_samples_is_the_median():
    values = [float(v) for v in range(15)]
    p = tail_percentile(len(values))
    assert p == 50 and samples_beyond(values, p) == 7


# -------------------------------------------------------------- self time

def _span(name, start, end, owner=("job", "j1"), **meta):
    return {"name": name, "start": start, "end": end, "owner": list(owner),
            "meta": meta}


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(10, 30), (20, 40), (50, 60), (70, 70)]) == 40
    assert union_length([]) == 0


def test_self_time_clips_children_and_ignores_non_children():
    parent = _span("service.execute", 0, 100)
    spans = [parent,
             _span("bvh.build", 10, 30),
             _span("core.outgoing", 20, 40),
             _span("service.serialize", 90, 120),  # clipped to 90..100
             _span("store.put.tree", 0, 100)]       # not a child
    assert self_time(parent, spans) == 100 - 40


def test_self_time_nests_by_time_across_threads():
    outgoing = _span("core.outgoing", 0, 50)
    nearest = _span("bvh.nearest", 5, 45)
    assert self_time(outgoing, [outgoing, nearest]) == 10
    assert self_time(nearest, [outgoing, nearest]) == 40


# ----------------------------------------------------------------- naming

@pytest.mark.parametrize("span, suffix, name", [
    ("store.lookup.tree", "ms", "store.lookup_ms.tree"),
    ("store.put.result", "calls", "store.put_calls.result"),
    ("bvh.build", "ms", "bvh.build_ms"),
    ("bvh.nearest", "calls", "bvh.nearest_calls"),
    ("core.labels", "calls", "core.rounds"),
    ("api.handle_get", "calls", "service.polls_per_op"),
])
def test_metric_name(span, suffix, name):
    assert metric_name(span, suffix) == name


def test_benchmark_json_lists_exactly_the_printed_metrics():
    from perfbench.run import END_TO_END_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        analysis.per_layer_metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS


def test_every_traced_span_name_is_known():
    from perfbench import tracing

    traced = {span for _, _, span in tracing.FUNCTIONS}
    traced |= {span for *_, span in tracing.METHODS}
    assert traced <= set(analysis.SPAN_NAMES)
    for parent, children in analysis.CHILDREN.items():
        assert {parent, *children} <= set(analysis.SPAN_NAMES)


# ------------------------------------------------------- per-op metrics

def test_layer_metrics_attributes_by_job_and_request():
    ms = 1_000_000
    spans = [
        _span("api.handle_post", 0, 3 * ms, owner=("req", 1), req=1,
              job="j1", bytes_in=100, bytes_out=40),
        _span("service.from_dict", 1 * ms, 2 * ms, owner=("req", 1)),
        _span("api.handle_get", 4 * ms, 20 * ms, owner=("req", 2), req=2,
              job="j1", bytes_in=0, bytes_out=900),
        _span("api.park", 4 * ms, 18 * ms, owner=("req", 2)),
        _span("service.execute", 5 * ms, 17 * ms),
        _span("core.outgoing", 6 * ms, 16 * ms),
        _span("bvh.nearest", 7 * ms, 15 * ms),
        _span("store.lookup.result", 5 * ms, 5 * ms + ms // 2, hit=False),
        # A job of no op (warm-up): dropped.
        _span("bvh.build", 0, 50 * ms, owner=("job", "warm")),
    ]
    op = {"sent": 1.0, "done": 1.025,
          "docs": [{"job_id": "j1", "timings": {"queue": 0.002},
                    "cache": {"result_hit": False},
                    "payload": {"counters": {
                        "tree": {"distance_evals": 3, "nodes_visited": 4},
                        "mst": {"distance_evals": 10,
                                "nodes_visited": 20}}}}]}
    out = layer_metrics([op], spans)
    assert out["api.handle_post_ms"] == pytest.approx(2.0)
    assert out["api.handle_get_ms"] == pytest.approx(2.0)
    assert out["service.execute_ms"] == pytest.approx(2.0)
    assert out["core.outgoing_ms"] == pytest.approx(2.0)
    assert out["bvh.nearest_ms"] == pytest.approx(8.0)
    assert out["bvh.build_calls"] == 0
    assert out["service.polls_per_op"] == 1
    assert out["api.transport_ms"] == pytest.approx(25.0 - 19.0)
    assert out["api.bytes_in"] == 100 and out["api.bytes_out"] == 940
    assert out["service.queue_wait_ms"] == pytest.approx(2.0)
    assert out["bvh.distance_evals"] == 13
    assert out["store.hit_ratio.result"] == 0.0
    assert out["trace.kernel_share"] == pytest.approx(10.0 / 25.0)
    assert set(out) | {"trace.overhead_ms"} == \
        set(analysis.per_layer_metric_units())


def test_executed_counters_drop_replayed_phases():
    counters = {"tree": {"distance_evals": 1, "nodes_visited": 1},
                "core": {"distance_evals": 10, "nodes_visited": 10},
                "mst": {"distance_evals": 100, "nodes_visited": 100}}
    doc = {"payload": {"emst": {"counters": counters}}}
    assert analysis.executed_counters(
        {**doc, "cache": {"result_hit": True}})["distance_evals"] == 0
    assert analysis.executed_counters(
        {**doc, "cache": {"tree_hit": True, "core_hit": True}}
    )["distance_evals"] == 100
    assert analysis.executed_counters(
        {**doc, "cache": {}})["nodes_visited"] == 111


# ------------------------------------------------------------ speed probe

def test_speed_factor_uses_probes_near_the_op():
    from perfbench.speed import REFERENCE_S, factor

    ref = REFERENCE_S
    probes = [(0.0, ref), (1.0, 2 * ref), (1.2, 2 * ref), (1.4, 4 * ref),
              (5.0, ref)]
    assert factor(probes, 1.1, 1.3) == pytest.approx(0.5)   # median of 3
    assert factor(probes, 3.0, 3.1) == pytest.approx(0.25)  # the nearest
    assert factor([], 0.0, 1.0) == 1.0


# ------------------------------------------------------------------ oracle

def _served_op(job, payload):
    raw = json.dumps({"job_id": "job-000001", "status": "done",
                      "payload": payload}).encode()
    return {"jobs": [job], "results": [{"job_id": "job-000001", "raw": raw,
                                        "polls": 1, "error": None}]}


def test_digest_table_covers_every_pool_job():
    from perfbench.oracle import key_id, load_table
    from perfbench.run import WORKLOADS

    table = load_table()
    missing = [key_id(job) for cls in WORKLOADS.values()
               for job in cls.pool_jobs() if key_id(job) not in table]
    assert missing == []


@pytest.mark.parametrize("source", ["Uniform100M2:1000:1",
                                    "Uniform100M2:1000:256",
                                    "Hacc37M:10000:1"])
def test_digest_table_matches_the_reference_engine(source):
    from perfbench.oracle import key_id, load_table, reference_digest

    job = {"source": source, "algorithm": "emst", "inline": False,
           "k_pts": 5}
    assert load_table()[key_id(job)] == reference_digest(job)


def test_oracle_passes_the_served_answer_and_fails_a_corrupted_one():
    from perfbench.oracle import key_id, reference_digest
    from perfbench.run import check, result_line
    from repro.service.executor import execute_spec, make_exec_spec
    from repro.service.jobs import JobSpec

    job = {"source": "Uniform100M2:300:5", "algorithm": "emst",
           "inline": False, "k_pts": 5}
    served = json.loads(json.dumps(execute_spec(make_exec_spec(
        JobSpec(dataset=job["source"])))["payload"]))
    digests = {key_id(job): reference_digest(job)}

    verdict = check([_served_op(job, served)], digests)
    assert (verdict["failed"], verdict["wrong"]) == (0, 0)
    assert result_line(verdict, {})[1] == 0

    corrupted = json.loads(json.dumps(served))
    corrupted["weights"][-1] += 1e-9
    ops = [_served_op(job, served), _served_op(job, corrupted)]
    verdict = check(ops, digests)
    assert (verdict["attempted"], verdict["wrong"]) == (2, 1)
    assert [op["ok"] for op in ops] == [True, False]
    result, code = result_line(verdict, {})
    assert result["correct"] is False and result["failed"] == 1
    assert code != 0


# ----------------------------------------------------------------- tracing

_TRACED_JOB = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from perfbench.tracing import Recorder, install
rec = Recorder()
install(rec)
from repro.service import Engine, JobSpec
with Engine(max_workers=1, obs=False) as engine:
    for algorithm in ("emst", "hdbscan"):
        job = engine.submit(JobSpec(dataset="Uniform100M2:200:3",
                                    algorithm=algorithm))
        assert engine.result(job, timeout=60).status.value == "done"
print(json.dumps(rec.spans))
"""


def test_installed_wrappers_record_owned_spans_from_a_real_engine():
    proc = subprocess.run([sys.executable, "-c", _TRACED_JOB, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {s["name"] for s in spans}
    assert {"service.execute", "service.serialize", "store.fingerprint",
            "store.lookup.result", "store.lookup.tree", "store.lookup.core",
            "store.put.tree", "store.put.core", "data.generate", "bvh.build",
            "bvh.nearest", "bvh.knn", "core.labels", "core.bounds",
            "core.outgoing", "core.merge", "hdbscan.linkage",
            "hdbscan.condense"} <= names
    assert {tuple(s["owner"]) for s in spans} == {
        ("job", "job-000001"), ("job", "job-000002")}
