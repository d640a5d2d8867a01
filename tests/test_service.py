"""Tests for the job-serving subsystem (repro.service)."""

import gc
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import emst, hdbscan
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import build_tree, mutual_reachability_emst
from repro.errors import InvalidInputError
from repro.obs import SLO
from repro.service import (
    Engine,
    JobResult,
    JobSpec,
    JobStatus,
    canonical_payload_bytes,
    emst_result_from_dict,
    emst_result_to_dict,
    execute_spec,
    hdbscan_result_from_dict,
    hdbscan_result_to_dict,
)
from repro.service import engine as engine_module
from repro.service.executor import make_exec_spec
from repro.service.scheduler import JobTicket, Scheduler
from repro.store import (
    ContentCache,
    combine_fingerprint,
    estimate_nbytes,
    fingerprint,
    fingerprint_array,
)
from tests.conftest import TREE_CONFIGS


@pytest.fixture
def engine():
    """A two-worker engine for the engine-level guarantees: caching,
    retention, failure absorption, stats."""
    with Engine(max_workers=2) as eng:
        yield eng


class TestTreeInjection:
    def test_emst_with_prebuilt_tree_is_identical(self, uniform_3d):
        direct = emst(uniform_3d)
        bvh = build_tree(uniform_3d)
        injected = emst(uniform_3d, bvh=bvh)
        assert np.array_equal(direct.edges, injected.edges)
        assert np.array_equal(direct.weights, injected.weights)
        assert injected.phases["tree"] == 0.0
        assert injected.counters["tree"].scalar_ops == 0

    def test_mrd_with_prebuilt_tree(self, uniform_2d):
        bvh = build_tree(uniform_2d)
        direct = mutual_reachability_emst(uniform_2d, 4)
        injected = mutual_reachability_emst(uniform_2d, 4, bvh=bvh)
        assert np.array_equal(direct.edges, injected.edges)
        assert np.allclose(direct.weights, injected.weights)

    def test_hdbscan_with_prebuilt_tree(self, clustered_3d):
        bvh = build_tree(clustered_3d)
        direct = hdbscan(clustered_3d)
        injected = hdbscan(clustered_3d, bvh=bvh)
        assert np.array_equal(direct.labels, injected.labels)

    def test_mismatched_tree_rejected(self, uniform_2d, uniform_3d, rng):
        bvh = build_tree(uniform_2d)
        with pytest.raises(InvalidInputError):
            emst(uniform_3d, bvh=bvh)
        with pytest.raises(InvalidInputError):
            emst(rng.random(uniform_2d.shape), bvh=bvh)

    def test_check_tree_false_skips_coordinate_pass(self, uniform_2d, rng):
        bvh = build_tree(uniform_2d)
        # An O(1) shape mismatch is always rejected...
        with pytest.raises(InvalidInputError):
            emst(rng.random((50, 2)), bvh=bvh, check_tree=False)
        # ...but the O(n*d) coordinate pass is the caller's guarantee.
        same_shape = rng.random(uniform_2d.shape)
        emst(same_shape, bvh=bvh, check_tree=False)  # no raise


class TestJobSpec:
    def test_requires_exactly_one_source(self, uniform_2d):
        with pytest.raises(InvalidInputError):
            JobSpec().validate()
        with pytest.raises(InvalidInputError):
            JobSpec(points=uniform_2d, dataset="Uniform100M2:10").validate()

    def test_rejects_unknown_algorithm(self, uniform_2d):
        with pytest.raises(InvalidInputError):
            JobSpec(points=uniform_2d, algorithm="dbscan").validate()

    def test_rejects_non_matrix_inline_points(self):
        with pytest.raises(InvalidInputError, match=r"\(n, d\)"):
            JobSpec(points=np.array([1.0, 2.0, 3.0])).validate()
        with pytest.raises(InvalidInputError, match=r"\(n, d\)"):
            JobSpec.from_dict({"points": [1.0, 2.0, 3.0]})

    def test_rejects_core_invalid_inline_points(self, rng):
        with pytest.raises(InvalidInputError, match="d in"):
            JobSpec(points=rng.random((10, 5))).validate()  # 5D
        nan_pts = rng.random((10, 2))
        nan_pts[0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            JobSpec(points=nan_pts).validate()
        with pytest.raises(InvalidInputError):
            JobSpec(points=np.array([["a", "b"]])).validate()

    def test_rejects_non_integer_numeric_fields(self, uniform_2d):
        with pytest.raises(InvalidInputError, match="integer"):
            JobSpec(points=uniform_2d, k_pts="5").validate()
        with pytest.raises(InvalidInputError, match="integer"):
            JobSpec(points=uniform_2d, priority="high").validate()

    def test_rejects_wrong_typed_config_fields(self, uniform_2d):
        with pytest.raises(InvalidInputError, match="config.bits"):
            JobSpec.from_dict({"points": uniform_2d.tolist(),
                               "config": {"bits": "8"}})
        with pytest.raises(InvalidInputError, match="boolean"):
            JobSpec.from_dict({"points": uniform_2d.tolist(),
                               "config": {"high_resolution": "yes"}})

    def test_rejects_bad_config_values(self, uniform_2d):
        with pytest.raises(InvalidInputError, match="tree_type"):
            JobSpec.from_dict({"points": uniform_2d.tolist(),
                               "config": {"tree_type": "octree"}})
        with pytest.raises(InvalidInputError, match="BVH backend only"):
            JobSpec.from_dict({"points": uniform_2d.tolist(),
                               "config": {"tree_type": "kdtree", "bits": 32}})

    @pytest.mark.parametrize("source,config", [
        ("2d", {"bits": 0}),
        ("2d", {"bits": 40}),
        ("3d", {"bits": 22}),
        ("Hacc37M:50", {"bits": 22}),
        ("Uniform100M2:50", {"bits": 32}),
        ("2d", {"bits": 12, "high_resolution": True}),
    ])
    def test_bad_bits_are_refused_at_submit(self, engine, rng, source,
                                            config):
        # Each of these used to be accepted and then fail in the worker.
        if source in ("2d", "3d"):
            spec = JobSpec(points=rng.random((50, int(source[0]))),
                           config=SingleTreeConfig(**config))
        else:
            spec = JobSpec(dataset=source, config=SingleTreeConfig(**config))
        with pytest.raises(InvalidInputError, match="config.bits"):
            engine.submit(spec)

    def test_bits_range_follows_the_dimension(self, engine, rng):
        spec = JobSpec(points=rng.random((50, 2)),
                       config=SingleTreeConfig(bits=22))
        result = engine.result(engine.submit(spec), timeout=60)
        assert result.status is JobStatus.DONE

    def test_spec_mutated_after_validation_fails_loudly(self, engine,
                                                        uniform_2d):
        spec = JobSpec(points=uniform_2d)
        engine.result(engine.submit(spec), timeout=60)
        spec.algorithm = "dbscan"  # bypasses the memoized validate()
        result = engine.result(engine.submit(spec), timeout=60)
        assert result.status is JobStatus.FAILED
        assert "unknown algorithm" in result.error

    def test_dict_round_trip(self, uniform_2d):
        spec = JobSpec(points=uniform_2d, algorithm="hdbscan", k_pts=7,
                       min_cluster_size=9, priority=3,
                       config=SingleTreeConfig(high_resolution=True))
        back = JobSpec.from_dict(spec.to_dict())
        assert np.array_equal(back.points, uniform_2d)
        assert back.algorithm == "hdbscan"
        assert back.k_pts == 7 and back.min_cluster_size == 9
        assert back.priority == 3
        assert back.config == spec.config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidInputError):
            JobSpec.from_dict({"dataset": "Uniform100M2:10", "metric": "l1"})
        with pytest.raises(InvalidInputError):
            JobSpec.from_dict({"dataset": "Uniform100M2:10",
                               "config": {"warp": 64}})

    def test_dataset_resolution(self):
        spec = JobSpec(dataset="Uniform100M2:64:3")
        prefixed = JobSpec(dataset="dataset:Uniform100M2:64:3")
        assert np.array_equal(spec.resolve_points(),
                              prefixed.resolve_points())

    def test_tree_key_independent_of_algorithm(self, uniform_2d):
        a = JobSpec(points=uniform_2d, algorithm="emst")
        b = JobSpec(points=uniform_2d, algorithm="hdbscan", k_pts=9)
        assert a.tree_key() == b.tree_key()
        assert a.params_key() != b.params_key()


class TestResultSerialization:
    def test_emst_round_trip(self, uniform_3d):
        direct = emst(uniform_3d)
        back = emst_result_from_dict(emst_result_to_dict(direct))
        assert np.array_equal(back.edges, direct.edges)
        assert back.edges.dtype == direct.edges.dtype
        assert np.array_equal(back.weights, direct.weights)
        assert back.n_iterations == direct.n_iterations
        assert back.phases == direct.phases
        assert back.total_counters.as_dict() == \
            direct.total_counters.as_dict()
        assert len(back.rounds) == len(direct.rounds)
        assert back.rounds[0] == direct.rounds[0]

    def test_hdbscan_round_trip(self, clustered_3d):
        direct = hdbscan(clustered_3d)
        back = hdbscan_result_from_dict(hdbscan_result_to_dict(direct))
        assert np.array_equal(back.labels, direct.labels)
        assert np.allclose(back.probabilities, direct.probabilities)
        assert back.n_clusters == direct.n_clusters
        assert np.allclose(back.linkage, direct.linkage)
        assert np.array_equal(back.condensed.parent, direct.condensed.parent)

    def test_job_result_round_trip(self, uniform_2d, clustered_3d):
        result = JobResult(job_id="job-7", status=JobStatus.DONE,
                           algorithm="emst", payload={"n_points": 3},
                           timings={"queue": 0.5}, cache={"result_hit": True},
                           mfeatures_per_sec=2.5)
        back = JobResult.from_dict(result.to_dict())
        assert back == result
        # Engine results splice their stored payload bytes verbatim into
        # the envelope; the body must decode to the whole dict, for every
        # algorithm, for a failure (payload None), traced or not.
        served = [result]
        for obs in (True, False):
            with Engine(max_workers=1, obs=obs) as eng:
                specs = [JobSpec(points=uniform_2d),
                         JobSpec(points=uniform_2d, algorithm="mrd_emst",
                                 k_pts=4),
                         JobSpec(points=clustered_3d, algorithm="hdbscan"),
                         JobSpec(points=np.zeros((1, 2)),
                                 algorithm="hdbscan")]
                served += [eng.result(eng.submit(spec), timeout=60)
                           for spec in specs]
        assert [r.status for r in served[1:]] == \
            [JobStatus.DONE] * 3 + [JobStatus.FAILED] + \
            [JobStatus.DONE] * 3 + [JobStatus.FAILED]
        assert [r.trace is not None for r in served[1:]] == \
            [True] * 4 + [False] * 4
        for r in served:
            body = r.to_json()
            assert json.loads(body) == r.to_dict()
            if r.encoded is not None:
                assert r.encoded.body in body
            assert JobResult.from_dict(json.loads(body)) == r
        assert served[4].payload is None and served[4].encoded is None


class TestContentCache:
    def test_fingerprint_content_addressing(self, rng):
        a = rng.random((50, 2))
        assert fingerprint_array(a) == fingerprint_array(a.copy())
        assert fingerprint_array(a) != fingerprint_array(a.reshape(100, 1))
        b = a.copy()
        b[0, 0] += 1e-12
        assert fingerprint_array(a) != fingerprint_array(b)
        assert fingerprint(a, "emst") != fingerprint(a, "hdbscan")

    def test_byte_budget_respected(self):
        kb = np.zeros(128, dtype=np.float64)  # 1 KiB each
        cache = ContentCache(4096)
        for i in range(10):
            assert cache.put(f"k{i}", kb)
            assert cache.current_bytes <= 4096
        assert len(cache) == 4
        assert cache.evictions == 6

    def test_lru_eviction_order(self):
        kb = np.zeros(128, dtype=np.float64)
        cache = ContentCache(4096)
        for i in range(4):
            cache.put(f"k{i}", kb)
        assert cache.get("k0") is not None  # refresh k0: k1 is now LRU
        cache.put("k4", kb)
        assert cache.keys() == ["k2", "k3", "k0", "k4"]
        assert cache.get("k1") is None

    def test_oversized_value_rejected(self):
        cache = ContentCache(100)
        assert not cache.put("big", np.zeros(1000))
        assert len(cache) == 0
        assert cache.oversized == 1

    def test_hit_miss_counters(self):
        cache = ContentCache(1 << 20)
        cache.put("a", np.zeros(8))
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_estimate_nbytes_counts_buffers(self, uniform_2d):
        bvh = build_tree(uniform_2d)
        size = estimate_nbytes(bvh)
        assert size >= bvh.points.nbytes + bvh.lo.nbytes + bvh.hi.nbytes
        assert estimate_nbytes({"edges": [[0, 1]], "w": 1.0}) > 0


class TestEngine:
    def test_determinism_vs_direct_call(self, engine, uniform_3d):
        direct = emst(uniform_3d)
        job_id = engine.submit(JobSpec(points=uniform_3d))
        result = engine.result(job_id, timeout=60)
        assert result.status is JobStatus.DONE
        served = result.emst()
        assert np.array_equal(served.edges, direct.edges)
        assert np.array_equal(served.weights, direct.weights)
        assert served.edges.tobytes() == direct.edges.tobytes()
        assert served.weights.tobytes() == direct.weights.tobytes()

    def test_dataset_repeat_skips_resolution(self, engine):
        first = engine.result(
            engine.submit(JobSpec(dataset="Uniform100M2:400")), timeout=60)
        second = engine.result(
            engine.submit(JobSpec(dataset="Uniform100M2:400")), timeout=60)
        assert "resolve" in first.timings
        assert second.cache["result_hit"]
        # The memoized fingerprint answers the repeat without regenerating
        # or rehashing the dataset.
        assert "resolve" not in second.timings
        assert second.payload == first.payload

    def test_result_cache_hit_on_repeat(self, engine, uniform_2d):
        first = engine.result(engine.submit(JobSpec(points=uniform_2d)),
                              timeout=60)
        second = engine.result(engine.submit(JobSpec(points=uniform_2d)),
                               timeout=60)
        assert first.cache == {
            "result_hit": False, "tree_hit": False, "core_hit": False,
            "coalesced": False,
            "result_disk_hit": False, "tree_disk_hit": False,
            "core_disk_hit": False}
        assert second.cache["result_hit"]
        assert np.array_equal(second.emst().edges, first.emst().edges)

    def test_result_tier_charges_exact_payload_bytes(self, engine,
                                                     uniform_2d):
        spec = JobSpec(points=uniform_2d)
        result = engine.result(engine.submit(spec), timeout=60)
        key = combine_fingerprint(fingerprint_array(uniform_2d),
                                  spec.params_key())
        size = engine.result_cache.size_of(key)
        assert size == result.encoded.nbytes == len(result.encoded.body)
        assert json.loads(result.encoded.body) == result.payload

    @pytest.mark.parametrize("config", list(TREE_CONFIGS))
    @pytest.mark.parametrize("n", [200, 1, 2, 3])
    def test_tree_reused_across_algorithms(self, engine, n, config):
        points = np.random.default_rng(n).random((n, 2))
        cfg = SingleTreeConfig(**TREE_CONFIGS[config])
        engine.result(engine.submit(JobSpec(points=points, config=cfg)),
                      timeout=60)
        k_pts = min(4, n)
        spec = JobSpec(points=points, algorithm="mrd_emst", k_pts=k_pts,
                       config=cfg)
        mrd = engine.result(engine.submit(spec), timeout=60)
        assert not mrd.cache["result_hit"]
        assert mrd.cache["tree_hit"]
        # A hit rebuilds the tree from its cached order in ``tree_build``;
        # the algorithm's own tree phase reports skipped.
        assert "tree_build" in mrd.timings
        assert mrd.timings["algo_tree"] == 0.0
        cold = execute_spec(make_exec_spec(spec, points=points))["payload"]
        assert canonical_payload_bytes(mrd.payload) == \
            canonical_payload_bytes(cold)
        direct = mutual_reachability_emst(points, k_pts, config=cfg)
        assert np.array_equal(mrd.emst().edges, direct.edges)

    def test_failed_job_reports_error(self, engine):
        # Passes submit-time validation but fails inside the worker
        # (clustering needs at least 2 points).
        job_id = engine.submit(JobSpec(points=np.zeros((1, 2)),
                                       algorithm="hdbscan"))
        result = engine.result(job_id, timeout=60)
        assert result.status is JobStatus.FAILED
        assert result.error
        assert engine.status(job_id) is JobStatus.FAILED
        # Absorbed failures still reach the scheduler's failure counter.
        assert engine.stats()["scheduler"]["jobs_failed"] == 1

    def test_bad_dataset_spec_rejected_at_submit(self, engine):
        for spec in ("NoSuchDataset:100", "Uniform100M2:many",
                     "Uniform100M2:0"):
            with pytest.raises(InvalidInputError):
                engine.submit(JobSpec(dataset=spec))

    def test_unknown_job_id(self, engine):
        with pytest.raises(InvalidInputError):
            engine.result("job-999999")

    def test_invalid_spec_raises_at_submit(self, engine):
        with pytest.raises(InvalidInputError):
            engine.submit(JobSpec())

    def test_stats_shape(self, engine, uniform_2d):
        engine.result(engine.submit(JobSpec(points=uniform_2d)), timeout=60)
        stats = engine.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["scheduler"]["jobs_completed"] == 1
        assert stats["tree_cache"]["entries"] == 1
        assert stats["result_cache"]["entries"] == 1
        assert 0.0 <= stats["tree_cache"]["hit_rate"] <= 1.0

    def test_retention_byte_bounded(self, rng):
        with Engine(max_workers=1, max_retained_bytes=1) as eng:
            ids = []
            for _ in range(3):  # one at a time: the newest is never evicted
                job_id = eng.submit(JobSpec(points=rng.random((50, 2))))
                assert eng.result(job_id, timeout=60).status is JobStatus.DONE
                ids.append(job_id)
            # Over the byte budget everything but the newest is evicted.
            with pytest.raises(InvalidInputError):
                eng.status(ids[0])
            assert eng.status(ids[-1]) is JobStatus.DONE

    def test_finished_inline_job_holds_no_points(self, rng):
        spec = JobSpec(points=rng.random((60, 2)))
        submitted = spec.points
        with Engine(max_workers=1) as eng:
            job_id = eng.submit(spec)
            result = eng.result(job_id, timeout=60)
            assert result.status is JobStatus.DONE
            record = eng._record(job_id)
            assert record.spec.points is None
            assert record.ticket.payload.points is None
            # Charged for the encoded payload alone.
            assert record.retained_nbytes == result.encoded.nbytes
            assert eng._retained_bytes == result.encoded.nbytes
        assert spec.points is submitted  # the caller's spec is untouched

    def test_finished_job_retention_bounded(self, rng):
        with Engine(max_workers=1, max_retained_jobs=3) as eng:
            ids = [eng.submit(JobSpec(points=rng.random((40 + i, 2))))
                   for i in range(6)]
            # One worker runs equal priorities in order, so the last job
            # finishes last.  Waiting on each job in turn raced the worker:
            # a job it had already forgotten raised.
            eng.result(ids[-1], timeout=60)
            # The oldest finished jobs are forgotten; the newest remain.
            with pytest.raises(InvalidInputError):
                eng.status(ids[0])
            assert eng.status(ids[-1]) is JobStatus.DONE
            assert eng.result(ids[-1]).status is JobStatus.DONE

    def test_concurrent_submissions(self, rng):
        """Stress: many threads race submissions through one engine."""
        point_sets = [rng.random((120 + 10 * i, 2)) for i in range(8)]
        expected = [emst(p).edges for p in point_sets]
        with Engine(max_workers=4) as eng:
            ids = [None] * 24
            errors = []

            def submitter(slot):
                try:
                    ids[slot] = eng.submit(
                        JobSpec(points=point_sets[slot % 8],
                                priority=slot % 3))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(24)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for slot, job_id in enumerate(ids):
                result = eng.result(job_id, timeout=120)
                assert result.status is JobStatus.DONE, result.error
                assert np.array_equal(result.emst().edges,
                                      expected[slot % 8])
            stats = eng.stats()
            assert stats["jobs"]["done"] == 24
            # 8 unique inputs for 24 jobs: repeats hit the result cache
            # except when concurrent duplicates race past each other.
            assert stats["result_cache"]["hits"] >= 1
            assert stats["scheduler"]["jobs_failed"] == 0


class TestExecutionBackends:
    """The pure executor and the tree-state round trip must hold on their
    own, outside any engine."""

    def test_execute_spec_is_pure(self, uniform_3d):
        """The extracted worker function computes the same answer as the
        library."""
        spec = JobSpec(points=uniform_3d)
        spec.validate()
        outcome = execute_spec(make_exec_spec(spec, points=uniform_3d))
        direct = emst(uniform_3d)
        assert outcome["payload"]["edges"] == direct.edges.tolist()
        assert outcome["n_points"] == 200 and outcome["dimension"] == 3
        assert outcome["features"] == 600
        assert np.array_equal(outcome["tree_order"],
                              build_tree(uniform_3d).order)
        assert "tree_build" in outcome["phases"]

    def test_execute_spec_reuses_injected_tree_order(self, uniform_2d):
        spec = JobSpec(points=uniform_2d)
        spec.validate()
        order = build_tree(uniform_2d).order
        outcome = execute_spec(
            make_exec_spec(spec, points=uniform_2d, tree_order=order))
        assert outcome["tree_order"] is None  # nothing new to cache
        assert "tree_build" in outcome["phases"]  # rebuilt from the order
        assert outcome["payload"]["edges"] == emst(uniform_2d).edges.tolist()

    def test_canonical_payload_bytes_ignores_timings_only(self):
        a = {"edges": [[0, 1]], "phases": {"mst": 0.5},
             "emst": {"n_points": 2, "phases": {"tree": 0.1}}}
        b = {"edges": [[0, 1]], "phases": {"mst": 0.9},
             "emst": {"n_points": 2, "phases": {"tree": 0.7}}}
        c = {"edges": [[0, 2]], "phases": {"mst": 0.5},
             "emst": {"n_points": 2, "phases": {"tree": 0.1}}}
        assert canonical_payload_bytes(a) == canonical_payload_bytes(b)
        assert canonical_payload_bytes(a) != canonical_payload_bytes(c)

    @pytest.mark.parametrize("config", list(TREE_CONFIGS))
    @pytest.mark.parametrize("source", ["Uniform100M2:3000", "Hacc37M:3000",
                                        1, 2, 3])
    def test_served_tree_counters_are_the_librarys(self, config, source):
        """A served payload reports its one tree build's work, whether the
        build was cold or rebuilt from the tree tier's cached order."""
        config = SingleTreeConfig(**TREE_CONFIGS[config])
        if isinstance(source, str):
            from repro.data import generate_from_spec
            points = generate_from_spec(source)
            spec = JobSpec(dataset=source, config=config)
        else:
            points = np.random.default_rng(source).random((source, 3))
            spec = JobSpec(points=points, config=config)
        library = emst(points, config=config).counters["tree"].as_dict()
        with Engine(max_workers=1) as eng:
            cold = eng.result(eng.submit(spec), timeout=120)
            eng.flush("result")
            hit = eng.result(eng.submit(spec), timeout=120)
        assert not cold.cache["tree_hit"] and hit.cache["tree_hit"]
        assert cold.payload["counters"]["tree"] == library
        assert hit.payload["counters"]["tree"] == library


def _queue(sched, job_id, priority=0):
    """Submit a payload-less ticket to ``sched``; returns the ticket."""
    ticket = JobTicket(job_id, None, priority=priority)
    sched.submit(ticket)
    return ticket


class TestScheduler:
    def test_throughput_accounting(self):
        release = threading.Event()

        def runner(ticket):
            release.wait(timeout=10)
            ticket.features = 100
            return ticket.job_id

        sched = Scheduler(runner, max_workers=1)
        try:
            tickets = [_queue(sched, f"j{i}") for i in range(8)]
            release.set()
            results = [t.future.result(timeout=30) for t in tickets]
            assert results == [f"j{i}" for i in range(8)]
            stats = sched.stats()
            assert stats["jobs_completed"] == 8
            assert stats["features_done"] == 800
            assert stats["mfeatures_per_sec"] >= 0.0
            assert stats["jobs_per_sec"] > 0.0
        finally:
            sched.shutdown()

    def test_priority_order(self):
        """Jobs queued behind a busy worker dispatch higher-priority first."""
        order = []
        started = threading.Event()
        gate = threading.Event()

        def runner(ticket):
            if ticket.job_id == "blocker":
                started.set()
                gate.wait(timeout=10)
            else:
                order.append(ticket.job_id)

        sched = Scheduler(runner, max_workers=1)
        try:
            blocker = _queue(sched, "blocker")
            assert started.wait(timeout=10)
            # The worker is busy: these two wait in the queue and must
            # leave it in priority order despite FIFO submission.
            low = _queue(sched, "low", priority=0)
            high = _queue(sched, "high", priority=5)
            gate.set()
            for t in (blocker, low, high):
                t.future.result(timeout=30)
            assert order == ["high", "low"]
        finally:
            sched.shutdown()

    def test_fifo_within_equal_priority(self):
        """Equal-priority jobs leave the queue in submission order."""
        order = []
        started = threading.Event()
        gate = threading.Event()

        def runner(ticket):
            if ticket.job_id == "blocker":
                started.set()
                gate.wait(timeout=10)
            else:
                order.append(ticket.job_id)

        sched = Scheduler(runner, max_workers=1)
        try:
            blocker = _queue(sched, "blocker")
            assert started.wait(timeout=10)
            # All queued behind the busy worker with the same priority:
            # dispatch must preserve submission order exactly.
            tickets = [_queue(sched, f"j{i}", priority=1) for i in range(5)]
            gate.set()
            for t in [blocker] + tickets:
                t.future.result(timeout=30)
            assert order == [f"j{i}" for i in range(5)]
        finally:
            sched.shutdown()

    def test_priority_beats_fifo(self):
        """Mixed priorities: higher first, FIFO only as the tiebreak."""
        order = []
        started = threading.Event()
        gate = threading.Event()

        def runner(ticket):
            if ticket.job_id == "blocker":
                started.set()
                gate.wait(timeout=10)
            else:
                order.append(ticket.job_id)

        sched = Scheduler(runner, max_workers=1)
        try:
            blocker = _queue(sched, "blocker")
            assert started.wait(timeout=10)
            submitted = [("a0", 0), ("b2", 2), ("c1", 1), ("d2", 2),
                         ("e0", 0)]
            tickets = [_queue(sched, job_id, priority=p)
                       for job_id, p in submitted]
            gate.set()
            for t in [blocker] + tickets:
                t.future.result(timeout=30)
            assert order == ["b2", "d2", "c1", "a0", "e0"]
        finally:
            sched.shutdown()

    def test_dispatches_immediately(self):
        sched = Scheduler(lambda ticket: ticket.job_id, max_workers=1)
        try:
            submitted_at = time.perf_counter()
            ticket = _queue(sched, "eager")
            assert ticket.future.result(timeout=30) == "eager"
            assert time.perf_counter() - submitted_at < 5.0
        finally:
            sched.shutdown()

    def test_runner_exception_fails_only_that_job(self):
        def runner(ticket):
            if ticket.job_id == "bad":
                raise RuntimeError("boom")
            return "ok"

        sched = Scheduler(runner, max_workers=1)
        try:
            bad = _queue(sched, "bad")
            good = _queue(sched, "good")
            with pytest.raises(RuntimeError):
                bad.future.result(timeout=30)
            assert good.future.result(timeout=30) == "ok"
            assert sched.stats()["jobs_failed"] == 1
        finally:
            sched.shutdown()

    def test_light_load_stays_on_the_most_recently_idled_worker(self):
        """Sequential jobs all land on one thread."""
        sched = Scheduler(lambda ticket: threading.current_thread().name,
                          max_workers=3)
        try:
            names = set()
            for i in range(6):
                deadline = time.monotonic() + 10
                while len(sched._idle) < 3:  # every worker back at rest
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                names.add(_queue(sched, f"j{i}").future.result(timeout=30))
        finally:
            sched.shutdown()
        assert len(names) == 1

    def test_every_ticket_runs_once_under_contention(self):
        """More workers and submitters than cores share one heap: a lost
        heap update would drop or repeat a job."""
        ran = []
        sched = Scheduler(lambda ticket: ran.append(ticket.job_id),
                          max_workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            submitters = [
                threading.Thread(target=lambda s=s: [
                    _queue(sched, f"{s}-{i}", priority=i % 3)
                    for i in range(100)])
                for s in range(4)]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join(timeout=30)
            closer = threading.Thread(target=sched.shutdown)
            closer.start()
            closer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not closer.is_alive()
        assert sorted(ran) == sorted(f"{s}-{i}" for s in range(4)
                                     for i in range(100))
        assert sched.stats()["jobs_completed"] == 400


def test_close_drains_the_queue_and_joins_named_workers(monkeypatch, rng):
    """Every job thread is a named scheduler worker, close() joins them
    all, and a job still queued when close() is called gets its result."""
    engine = Engine(max_workers=2)
    gate = threading.Event()
    ran_on = []
    original = engine_module.execute_spec

    def gated_execute(exec_spec):
        ran_on.append(threading.current_thread())
        assert gate.wait(timeout=60)
        return original(exec_spec)

    monkeypatch.setattr(engine_module, "execute_spec", gated_execute)
    busy = [engine.submit(JobSpec(points=rng.random((60 + i, 2))))
            for i in range(2)]
    deadline = time.monotonic() + 60
    while len(ran_on) < 2:  # both workers hold a job
        assert time.monotonic() < deadline, "workers never started"
        time.sleep(0.01)
    queued = engine.submit(JobSpec(points=rng.random((90, 2))))
    closer = threading.Thread(target=engine.close, name="test-closer")
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive()  # close() waits for the busy workers
    assert engine.status(queued) is JobStatus.PENDING
    gate.set()
    closer.join(timeout=120)
    assert not closer.is_alive()
    for job_id in busy + [queued]:
        result = engine.result(job_id, timeout=0)
        assert result.status is JobStatus.DONE, result.error
    assert {t.name for t in ran_on} == {"repro-worker-0", "repro-worker-1"}
    assert not any(t.is_alive() for t in ran_on)


@pytest.mark.parametrize("kwargs", [
    {"trace_archive_bytes": 0},
    {"trace_sample": 2.0},
    {"trace_slow_threshold": -1.0},
    # A latency SLO must sit on a repro_job_seconds bucket bound.
    {"slos": (SLO("p95", "latency", 0.95, threshold_s=0.123),)},
    {"profile_hz": 0},
], ids=lambda kwargs: next(iter(kwargs)))
def test_rejected_argument_leaves_nothing_running(kwargs):
    """An Engine(...) that raises started no thread and installed no hook:
    an embedding caller has no object to close()."""
    threads = set(threading.enumerate())
    hooks = list(gc.callbacks)
    with pytest.raises(ValueError):
        Engine(max_workers=2, obs=True, **kwargs)
    assert [t.name for t in threading.enumerate() if t not in threads] == []
    assert gc.callbacks == hooks


class TestRequestCoalescing:
    """Identical in-flight fingerprints share one upstream computation."""

    def _gated_engine(self, monkeypatch):
        engine = Engine(max_workers=2)
        gate = threading.Event()
        dispatches = []
        original = engine_module.execute_spec

        def slow_execute(exec_spec):
            dispatches.append(1)
            assert gate.wait(timeout=30)
            return original(exec_spec)

        monkeypatch.setattr(engine_module, "execute_spec", slow_execute)
        return engine, gate, dispatches

    def test_concurrent_identical_jobs_compute_once(self, monkeypatch,
                                                    uniform_2d):
        engine, gate, dispatches = self._gated_engine(monkeypatch)
        with engine:
            leader = engine.submit(JobSpec(points=uniform_2d))
            follower = engine.submit(JobSpec(points=uniform_2d))
            time.sleep(0.2)  # let the follower reach the rendezvous
            gate.set()
            first = engine.result(leader, timeout=60)
            second = engine.result(follower, timeout=60)
            assert first.status is JobStatus.DONE, first.error
            assert second.status is JobStatus.DONE, second.error
            # One upstream execution; exactly one of the two led it and
            # the other rode it (which worker wins the in-flight
            # rendezvous is a scheduling race, not part of the contract).
            assert len(dispatches) == 1
            flags = sorted([first.cache["coalesced"],
                            second.cache["coalesced"]])
            assert flags == [False, True]
            rider = first if first.cache["coalesced"] else second
            assert not rider.cache["result_hit"]
            # Only the leader encoded the payload; the rider shares it.
            leader_result = second if rider is first else first
            assert "encode" in leader_result.timings
            assert "encode" not in rider.timings
            assert canonical_payload_bytes(second.payload) == \
                canonical_payload_bytes(first.payload)
            assert engine.stats()["coalesced_hits"] == 1

    def test_follower_of_failed_leader_computes_itself(self, monkeypatch,
                                                      uniform_2d):
        engine = Engine(max_workers=2)
        gate = threading.Event()
        original = engine_module.execute_spec
        state = {"calls": 0}

        def failing_first(exec_spec):
            state["calls"] += 1
            first_call = state["calls"] == 1
            assert gate.wait(timeout=30)
            if first_call:
                raise RuntimeError("leader died")
            return original(exec_spec)

        monkeypatch.setattr(engine_module, "execute_spec", failing_first)
        with engine:
            leader = engine.submit(JobSpec(points=uniform_2d))
            follower = engine.submit(JobSpec(points=uniform_2d))
            time.sleep(0.2)
            gate.set()
            first = engine.result(leader, timeout=60)
            second = engine.result(follower, timeout=60)
            # Whichever job led the rendezvous died with the first
            # dispatch; the other must not ride the failed leader — it
            # falls through, computes itself and succeeds.
            statuses = sorted(r.status.value for r in (first, second))
            assert statuses == ["done", "failed"], \
                [(r.status.value, r.error) for r in (first, second)]
            survivor = first if first.status is JobStatus.DONE else second
            assert not survivor.cache["coalesced"]
            assert state["calls"] == 2
            assert engine.stats()["coalesced_hits"] == 0

    def test_sequential_repeats_do_not_coalesce(self, uniform_2d):
        with Engine(max_workers=1) as engine:
            first = engine.result(engine.submit(JobSpec(points=uniform_2d)),
                                  timeout=60)
            second = engine.result(engine.submit(JobSpec(points=uniform_2d)),
                                   timeout=60)
            assert first.status is JobStatus.DONE
            # The repeat is a result-cache hit, not a coalesced wait.
            assert second.cache["result_hit"]
            assert not second.cache["coalesced"]
            assert engine.stats()["coalesced_hits"] == 0
