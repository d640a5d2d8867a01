"""Engines: equivalence and counters.

Every engine in ``ENGINES`` must be *indistinguishable by answer* from the
single-pop reference engine on every query the EMST pipeline issues —
including adversarial inputs (duplicate points, collinear sets,
all-identical points) under every constraint combination (no, random or
singleton component labels x mutual-reachability x initial radius).  The
canonical payload bytes certify that end to end; the compiled engine
must match the reference on every counter too, and pinned counts on a
fixed grid keep the shared counter semantics from drifting.  The LBVH
build and the Borůvka round steps follow the same engine switch; their
C code must reproduce every NumPy array, schedule and counter bit for bit
(``TestCompiledSteps``).
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given

from repro.bvh import (
    batched_knn,
    batched_nearest,
    build_bvh,
    traversal_engine,
)
from repro.bvh import compiled
from repro.bvh.traversal import (
    ENGINES,
    get_default_engine,
    set_default_engine,
)
from repro.core import boruvka_emst
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.core.kdtree_backend import kdtree_as_bvh
from repro.core.labels import reduce_labels
from repro.core.outgoing import OutgoingEdges
from repro.data import generate, generate_from_spec
from repro.errors import InvalidInputError
from repro.hdbscan.hdbscan import hdbscan
from repro.kokkos.counters import CostCounters
from repro.service.jobs import (
    canonical_payload_bytes,
    emst_result_to_dict,
    hdbscan_result_to_dict,
)
from tests.conftest import finite_points

#: The paper's configuration (no warm frontier, adjacent-pairs bounds):
#: the answer every other configuration must reproduce byte for byte.
OLD_CONFIG = SingleTreeConfig(warm_frontier=False, bound_window=1)

#: 2^-27 (1 + 2^-20): the squared distance from the origin to
#: (1, DELTA, DELTA) is 1.0 summed left to right, as ``np.sum`` does, and
#: 1.0000000000000002 under any other association of the three terms.
DELTA = 2.0 ** -27 * (1 + 2.0 ** -20)


def adversarial_point_sets():
    rng = np.random.default_rng(7)
    uniform = rng.random((120, 2))
    return [
        ("uniform", uniform),
        ("duplicates", np.repeat(rng.random((40, 2)), 3, axis=0)),
        ("collinear", np.stack([np.linspace(0.0, 1.0, 90),
                                np.zeros(90)], axis=1)),
        ("identical", np.zeros((33, 2))),
        ("two-clusters", np.concatenate([uniform * 0.01,
                                         uniform * 0.01 + 5.0])),
        # A 2D distance sums two terms, which no order can round apart;
        # these pin the 3D accumulation order the kernels rely on.
        ("3d-delta-pair", np.concatenate([[[0.0, 0.0, 0.0],
                                           [1.0, DELTA, DELTA]],
                                          rng.random((60, 3)) + 3.0])),
        # Clustered, tree height 42: deep, uneven traversals.
        ("hacc-2000", generate("Hacc37M", 2000)),
    ]


class TestEngineSelection:
    def test_default_is_compiled_when_loadable(self):
        want = "compiled" if compiled.load() is not None else "reference"
        assert get_default_engine() == want
        assert set(ENGINES) == {"compiled", "reference"}

    def test_context_manager_restores(self):
        before = get_default_engine()
        with traversal_engine("reference"):
            assert get_default_engine() == "reference"
        assert get_default_engine() == before

    def test_rejects_unknown_engine(self):
        before = get_default_engine()
        for name in ("gpu", "cuda"):
            with pytest.raises(InvalidInputError):
                set_default_engine(name)
        assert get_default_engine() == before


class TestByteIdentity:
    """New vs reference results on adversarial inputs, every constraint."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    @pytest.mark.parametrize("warm", [False, True])
    def test_emst_canonical_bytes(self, name, pts, warm):
        reference = emst(pts, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        config = SingleTreeConfig(warm_frontier=warm)
        for engine in ENGINES:
            with traversal_engine(engine):
                got = emst(pts, config=config)
            assert canonical_payload_bytes(emst_result_to_dict(got)) \
                == want, (name, warm, engine)

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_mrd_emst_canonical_bytes(self, name, pts):
        reference = mutual_reachability_emst(pts, 4, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        for engine in ENGINES:
            with traversal_engine(engine):
                got = mutual_reachability_emst(pts, 4)
            assert canonical_payload_bytes(emst_result_to_dict(got)) \
                == want, (name, engine)

    def test_hdbscan_canonical_bytes(self):
        rng = np.random.default_rng(3)
        centers = rng.random((4, 2)) * 10
        pts = np.concatenate([c + rng.normal(0, 0.1, (50, 2))
                              for c in centers])
        reference = hdbscan(pts, min_cluster_size=6, k_pts=4,
                            config=OLD_CONFIG)
        want = canonical_payload_bytes(hdbscan_result_to_dict(reference))
        for engine in ENGINES:
            with traversal_engine(engine):
                got = hdbscan(pts, min_cluster_size=6, k_pts=4)
            assert canonical_payload_bytes(hdbscan_result_to_dict(got)) \
                == want, engine

    @given(finite_points(min_n=2, max_n=60))
    def test_property_engines_agree_on_emst(self, pts):
        with traversal_engine("reference"):
            want = emst(pts)
        for engine in ENGINES:
            with traversal_engine(engine):
                got = emst(pts)
            assert np.array_equal(got.edges, want.edges), engine
            assert np.array_equal(got.weights, want.weights), engine

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_constrained_nearest_all_combos(self, name, pts):
        """labels x mrd x init-radius, keyed: identical answers."""
        bvh = build_bvh(pts)
        for combo, kwargs in constraint_combos(bvh):
            with traversal_engine("reference"):
                want = batched_nearest(bvh, bvh.points, **kwargs)
            for engine in ENGINES:
                with traversal_engine(engine):
                    got = batched_nearest(bvh, bvh.points, **kwargs)
                where = (name, combo, engine)
                assert np.array_equal(got.position, want.position), where
                assert np.array_equal(got.distance_sq, want.distance_sq), \
                    where
                assert np.array_equal(got.key, want.key), where

    def test_knn_distances_agree(self):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts)
            for k in (1, 4):
                with traversal_engine("reference"):
                    want = batched_knn(bvh, bvh.points, k)
                for engine in ENGINES:
                    with traversal_engine(engine):
                        got = batched_knn(bvh, bvh.points, k)
                    assert np.array_equal(got.distance_sq,
                                          want.distance_sq), (name, k, engine)


def constraint_combos(bvh):
    """``(combo, kwargs)`` for labels x mrd x init-radius, keyed.  The
    labels are none, three random components, or one component per point,
    which keeps each query from finding its own point."""
    rng = np.random.default_rng(11)
    n = bvh.n
    label_sets = {"random": rng.integers(0, 3, size=n),
                  "singleton": np.arange(n)}
    core = rng.random(n) * 0.05
    for combo in itertools.product((None, "random", "singleton"),
                                   (False, True), (False, True)):
        label_set, use_mrd, use_radius = combo
        kwargs = dict(query_ids=bvh.order, point_ids=bvh.order)
        if label_set is not None:
            labels = label_sets[label_set]
            kwargs.update(query_labels=labels,
                          node_labels=reduce_labels(bvh, labels))
        if use_mrd:
            kwargs.update(query_core_sq=core, point_core_sq=core)
        if use_radius:
            kwargs.update(init_radius_sq=np.full(n, 0.3))
        yield combo, kwargs


def _with_counters(kernel, *args, engine, **kwargs):
    counters = CostCounters()
    with traversal_engine(engine):
        out = kernel(*args, counters=counters, **kwargs)
    return out, counters.as_dict()


class TestCompiledCounters:
    """The compiled engine runs the reference loop: every answer (tie
    positions and output order included) and every counter agree."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_nearest_all_combos(self, name, pts):
        bvh = build_bvh(pts)
        for (combo, kwargs), keyed in itertools.product(
                constraint_combos(bvh), (True, False)):
            if not keyed:  # unkeyed ties keep the first found
                kwargs = {key: value for key, value in kwargs.items()
                          if key not in ("query_ids", "point_ids")}
            got, got_c = _with_counters(batched_nearest, bvh, bvh.points,
                                        engine="compiled", **kwargs)
            want, want_c = _with_counters(batched_nearest, bvh, bvh.points,
                                          engine="reference", **kwargs)
            where = (name, combo, keyed)
            assert np.array_equal(got.position, want.position), where
            assert np.array_equal(got.distance_sq, want.distance_sq), where
            assert np.array_equal(got.key, want.key), where
            assert got_c == want_c, where

    def test_knn_with_tie_positions(self):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts)
            for k in (1, 4):
                got, got_c = _with_counters(
                    batched_knn, bvh, bvh.points, k, engine="compiled")
                want, want_c = _with_counters(
                    batched_knn, bvh, bvh.points, k, engine="reference")
                where = (name, k)
                assert np.array_equal(got.positions, want.positions), where
                assert np.array_equal(got.distance_sq, want.distance_sq), \
                    where
                assert got_c == want_c, where

    def test_one_point_tree(self):
        # The lone leaf is evaluated without the node tests, so the root's
        # label check is all that keeps a query of its component from it.
        bvh = build_bvh(np.array([[0.5, 0.5]]))
        queries = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 2.0]])
        own = dict(query_labels=np.zeros(3, dtype=np.int64),
                   node_labels=np.zeros(1, dtype=np.int64))
        for labels in ({}, own):
            runs = []
            for engine in ENGINES:
                nearest, nc = _with_counters(
                    batched_nearest, bvh, queries, engine=engine, **labels)
                knn, kc = _with_counters(
                    batched_knn, bvh, queries, 2, engine=engine)
                assert np.all(nearest.found == (not labels)), engine
                assert np.all(knn.positions[:, 0] == 0), engine
                runs.append((_bits(nearest.position),
                             _bits(nearest.distance_sq), nc,
                             _bits(knn.positions), _bits(knn.distance_sq),
                             kc))
            assert runs[0] == runs[1], bool(labels)


def nonfinite_case(bvh, core_value):
    """Queries the clamps must treat as NumPy does, and their cores.

    The queries are the tree's points (each finds itself when no labels
    keep it out), then rows holding NaN, ±inf, ±1e308 or -0.0, and rows
    lying exactly on a face of some node's box.  Returns the queries,
    the tree point each one takes its label, id and radius from, and the
    query and point core distances: every fifth point's is
    ``core_value``, and the extra rows cycle through NaN, +inf and
    -0.0."""
    n, dim = bvh.n, bvh.dim
    rows = []
    centre = (bvh.lo[0] + bvh.hi[0]) / 2
    for value in (np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0):
        one = centre.copy()
        one[0] = value
        rows += [one, np.full(dim, value)]
    for node in np.unique(np.linspace(0, 2 * n - 2, 7).astype(np.int64)):
        centre = (bvh.lo[node] + bvh.hi[node]) / 2
        for k, face in itertools.product(range(dim), (bvh.lo, bvh.hi)):
            row = centre.copy()
            row[k] = face[node, k]
            rows.append(row)
    queries = np.concatenate([bvh.points, rows])
    core = np.random.default_rng(5).random(n) * 0.05
    core[::5] = core_value
    extra = np.resize([np.nan, np.inf, -0.0, 0.01], len(rows))
    return (queries, np.arange(len(queries)) % n,
            np.concatenate([core, extra]), core)


def _nan_bits(value):
    """``_bits`` with every NaN the same NaN: any NaN equals any other."""
    return _bits(np.where(np.isnan(value), np.nan, value))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNonFiniteParity:
    """NaN, ±inf, ±1e308 and -0.0 in queries and core distances, and
    queries on box faces: the compiled kernels' branch-free clamps give
    the reference's positions, keys and counters, and its distances bit
    for bit.  (The reference squares ±1e308 gaps to inf.)"""

    def _assert_nearest(self, bvh, queries, kwargs, where):
        got, got_c = _with_counters(batched_nearest, bvh, queries,
                                    engine="compiled", **kwargs)
        want, want_c = _with_counters(batched_nearest, bvh, queries,
                                      engine="reference", **kwargs)
        assert _bits(got.position) == _bits(want.position), where
        assert _bits(got.key) == _bits(want.key), where
        assert _nan_bits(got.distance_sq) == _nan_bits(want.distance_sq), \
            where
        assert got_c == want_c, where

    @pytest.mark.parametrize("n", [300, 1])
    @pytest.mark.parametrize("core_value", [np.nan, np.inf, -0.0],
                             ids=["nan", "inf", "-0.0"])
    def test_nearest_all_combos(self, n, core_value):
        # n = 1: the lone leaf is evaluated without a bound, so NaN
        # queries and NaN query cores reach the leaf's clamps.
        bvh = build_bvh(np.random.default_rng(3).random((n, 3)))
        queries, idx, query_core, core = nonfinite_case(bvh, core_value)
        for (combo, kwargs), keyed in itertools.product(
                constraint_combos(bvh), (True, False)):
            lane_kwargs = {key: value[idx] if key in PER_QUERY else value
                           for key, value in kwargs.items()
                           if keyed or key not in ("query_ids", "point_ids")}
            if "query_core_sq" in kwargs:
                lane_kwargs.update(query_core_sq=query_core,
                                   point_core_sq=core)
            self._assert_nearest(bvh, queries, lane_kwargs,
                                 (n, combo, keyed))

    @pytest.mark.parametrize("n", [300, 1])
    def test_knn(self, n):
        bvh = build_bvh(np.random.default_rng(3).random((n, 3)))
        queries = nonfinite_case(bvh, 0.0)[0]
        for k in (1, 4):
            got, got_c = _with_counters(batched_knn, bvh, queries, k,
                                        engine="compiled")
            want, want_c = _with_counters(batched_knn, bvh, queries, k,
                                          engine="reference")
            assert _bits(got.positions) == _bits(want.positions), (n, k)
            assert _nan_bits(got.distance_sq) == \
                _nan_bits(want.distance_sq), (n, k)
            assert got_c == want_c, (n, k)


#: Thread counts and batch widths (in lanes) the split must not change:
#: around a warp of 32 and a block of 256 lanes, and many blocks.
THREADS = (1, 2, 3, 8)
BATCHES = (1, 31, 32, 33, 255, 256, 257, 10_000)
PER_QUERY = ("query_labels", "query_ids", "query_core_sq",
             "init_radius_sq")


def _lanes(bvh, batch, kwargs):
    """``batch`` query lanes cycling over the tree's points, each
    per-query argument of ``kwargs`` cycled with them."""
    idx = np.arange(batch) % bvh.n
    return bvh.points[idx], {key: value[idx] if key in PER_QUERY else value
                             for key, value in kwargs.items()}


@pytest.fixture
def pin_threads(monkeypatch):
    """Run every compiled kernel call on the given threads (fewer when
    it has fewer blocks, as the kernel caps them at its block count)."""
    def pin(threads):
        monkeypatch.setattr(compiled, "_cpus", lambda: threads)
    return pin


class TestThreadCounts:
    """The compiled nearest and k-NN kernels split their lanes across
    threads in blocks of whole warps: every output array and every counter
    is the same at any thread count."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_nearest_all_combos(self, name, pts, pin_threads):
        bvh = build_bvh(pts)
        for (combo, kwargs), batch in itertools.product(
                constraint_combos(bvh), BATCHES):
            queries, lane_kwargs = _lanes(bvh, batch, kwargs)
            runs = []
            for threads in THREADS:
                pin_threads(threads)
                got, counters = _with_counters(
                    batched_nearest, bvh, queries, engine="compiled",
                    **lane_kwargs)
                runs.append((_bits(got.position), _bits(got.distance_sq),
                             _bits(got.key), counters))
            assert all(run == runs[0] for run in runs), (name, combo, batch)

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_knn(self, name, pts, pin_threads):
        bvh = build_bvh(pts)
        for k, batch in itertools.product((1, 4), BATCHES):
            queries, _ = _lanes(bvh, batch, {})
            runs = []
            for threads in THREADS:
                pin_threads(threads)
                got, counters = _with_counters(
                    batched_knn, bvh, queries, k, engine="compiled")
                runs.append((_bits(got.positions), _bits(got.distance_sq),
                             counters))
            assert all(run == runs[0] for run in runs), (name, k, batch)

    @pytest.mark.parametrize("algorithm", ["emst", "mrd_emst"])
    def test_payload_and_rounds(self, algorithm, pin_threads):
        pts = generate("Hacc37M", 3000)

        def payload():
            result = (emst(pts) if algorithm == "emst"
                      else mutual_reachability_emst(pts, 4))
            out = emst_result_to_dict(result)
            del out["phases"]
            return json.dumps(out, sort_keys=True)

        with traversal_engine("reference"):
            want = payload()
        for threads in (1, 3):
            pin_threads(threads)
            assert payload() == want, (algorithm, threads)


#: sha256 of the sorted-key JSON of ``emst_result_to_dict`` minus
#: ``phases``: edges, weights and iterations, and also every counter and
#: round statistic, which the canonical bytes leave out.  Taken when the
#: two engines were last changed together, so a counter that drifts on
#: both at once still fails here.
PINNED_PAYLOADS = {
    ("emst", "Hacc37M:3000", "bvh"):
        "7cb4488825bfec52386cc335df3238a83de8d617af4a80a0391eecbd4e0f2714",
    ("mrd_emst", "Hacc37M:3000", "bvh"):
        "c054dc80b86dc04fa967949bcbc5074cc54606131c83a1d18b1641aa001d26cc",
    ("emst", "Uniform100M2:3000", "kdtree"):
        "8df83066226efde9029ecb6923c2484c6ea6416e132c369ac4b357ef3083d1d4",
}


def _grid16():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestCounterRegression:
    """Exact visit counts on a fixed 16-point grid — pinned so the
    single-pop counter semantics cannot silently drift."""

    def _count(self, bvh, engine):
        """Each grid point's nearest other point: singleton labels keep
        a query from its own."""
        labels = np.arange(bvh.n)
        counters = CostCounters()
        with traversal_engine(engine):
            batched_nearest(bvh, bvh.points, counters=counters,
                            query_labels=labels,
                            node_labels=reduce_labels(bvh, labels))
        return counters

    def test_reference_counts(self):
        c = self._count(build_bvh(_grid16()), "reference")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 376, 48, 48, 136, 10)

    def test_compiled_counts_equal_reference(self):
        c = self._count(build_bvh(_grid16()), "compiled")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 376, 48, 48, 136, 10)

    @pytest.mark.parametrize("algorithm,dataset,tree_type",
                             sorted(PINNED_PAYLOADS))
    def test_payload_digest_pinned(self, algorithm, dataset, tree_type):
        pts = generate_from_spec(dataset)
        config = SingleTreeConfig(tree_type=tree_type)
        for engine in ENGINES:
            with traversal_engine(engine):
                result = (emst(pts, config=config) if algorithm == "emst"
                          else mutual_reachability_emst(pts, 4,
                                                        config=config))
            payload = emst_result_to_dict(result)
            del payload["phases"]
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()).hexdigest()
            assert digest == PINNED_PAYLOADS[algorithm, dataset, tree_type], \
                engine

    def test_emst_round_counters_populated(self):
        # RoundStats survive the new kernels (used by the figure benches).
        result = emst(np.random.default_rng(0).random((256, 2)))
        for r in result.rounds:
            assert r.nodes_visited > 0
            assert r.warp_steps > 0
            assert r.lane_steps >= r.warp_steps


# ------------------------------------------------------ build and rounds

def step_point_sets():
    """The adversarial sets plus inputs only the build can get wrong:
    coordinates of both zero signs (the refit's min/max ties), a
    collinear 3D line and the smallest tree."""
    rng = np.random.default_rng(19)
    zeros = rng.choice([0.0, -0.0, 1.0], size=(200, 3), p=[0.4, 0.4, 0.2])
    line = np.linspace(-1.0, 1.0, 70)
    return adversarial_point_sets() + [
        ("signed-zeros-3d", zeros),
        ("signed-zeros-2d", np.ascontiguousarray(zeros[:, 1:])),
        ("collinear-3d", np.stack([line, 2.0 * line, -line], axis=1)),
        ("n=2", np.array([[0.0, -0.0], [-0.0, 0.0]])),
    ]


TREE_ARRAYS = ("points", "order", "left", "right", "parent", "lo", "hi")


def _bits(value):
    """``value`` as comparable bytes: arrays by dtype, shape and bytes
    (so ``-0.0`` and ``0.0`` differ), containers element by element."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    if isinstance(value, OutgoingEdges):
        return tuple(_bits(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    return value


def _build(engine, build, pts, **kwargs):
    counters = CostCounters()
    with traversal_engine(engine):
        tree = build(pts, counters=counters, **kwargs)
    return ({name: _bits(getattr(tree, name)) for name in TREE_ARRAYS},
            _bits(tree.schedule), counters.as_dict())


ROUND_STEPS = ("reduce_labels", "compute_upper_bounds",
               "find_components_outgoing_edges", "merge_components")


def _rounds(monkeypatch, engine, run):
    """Every round step's output, and the counters after it, in call
    order, plus the payload of ``run()`` without its wall-clock phases."""
    log = []
    for name in ROUND_STEPS:
        def recorded(*args, _step=getattr(boruvka_emst, name), _name=name,
                     **kwargs):
            out = _step(*args, **kwargs)
            log.append((_name, _bits(out), kwargs["counters"].as_dict()))
            return out
        monkeypatch.setattr(boruvka_emst, name, recorded)
    try:
        with traversal_engine(engine):
            payload = emst_result_to_dict(run())
    finally:
        monkeypatch.undo()
    del payload["phases"]
    return log, json.dumps(payload, sort_keys=True)


class TestCompiledSteps:
    """``steps.c`` against the NumPy build and round steps: every tree
    array, schedule, round output and counter, bit for bit."""

    @pytest.mark.parametrize("name,pts", step_point_sets())
    @pytest.mark.parametrize("kwargs", [{}, {"high_resolution": True}],
                             ids=["leaf1", "128bit"])
    def test_lbvh_build(self, name, pts, kwargs):
        got = _build("compiled", build_bvh, pts, **kwargs)
        want = _build("reference", build_bvh, pts, **kwargs)
        assert got == want, (name, kwargs)

    @pytest.mark.parametrize("name,pts", step_point_sets())
    def test_kdtree_refit(self, name, pts):
        got = _build("compiled", kdtree_as_bvh, pts)
        want = _build("reference", kdtree_as_bvh, pts)
        assert got == want, name

    def test_signed_zero_boxes_follow_numpy(self):
        # np.minimum(0.0, -0.0) is -0.0: the second operand wins a tie.
        pts = np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0], [-0.0, 4.0]])
        for engine in ENGINES:
            with traversal_engine(engine):
                tree = build_bvh(pts)
            ties = np.minimum(tree.lo[tree.left], tree.lo[tree.right])
            assert _bits(tree.lo[:tree.leaf_base]) == _bits(ties), engine

    @pytest.mark.parametrize("dataset", [
        "Hacc37M:2000", "Uniform100M2:3000", "Uniform100M3:1500",
        "PortoTaxi:2000", "Normal100M2:1000"])
    @pytest.mark.parametrize("algorithm", ["emst", "mrd_emst"])
    def test_every_round_step(self, monkeypatch, dataset, algorithm):
        name, n = dataset.split(":")
        pts = generate(name, int(n))
        if algorithm == "emst":
            def run():
                return emst(pts)
        else:
            def run():
                return mutual_reachability_emst(pts, 4)
        got, got_payload = _rounds(monkeypatch, "compiled", run)
        want, want_payload = _rounds(monkeypatch, "reference", run)
        assert len(got) == len(want) >= 2 * len(ROUND_STEPS)
        for round_step, (a, b) in enumerate(zip(got, want)):
            assert a == b, (dataset, algorithm, round_step, a[0])
        assert got_payload == want_payload

    @pytest.mark.parametrize("config", [
        SingleTreeConfig(subtree_skipping=False, component_bounds=False),
        SingleTreeConfig(warm_frontier=False, bound_window=1),
        SingleTreeConfig(tree_type="kdtree")],
        ids=["no-optimizations", "paper", "kdtree"])
    def test_round_steps_under_other_configs(self, monkeypatch, config):
        pts = generate("Hacc37M", 1500)
        got = _rounds(monkeypatch, "compiled",
                      lambda: emst(pts, config=config))
        want = _rounds(monkeypatch, "reference",
                       lambda: emst(pts, config=config))
        assert got == want
