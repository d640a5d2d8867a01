"""Additional corner-case coverage across modules."""

import numpy as np
import pytest

from repro.baselines.delaunay2d import delaunay_emst_2d
from repro.bvh import build_bvh
from repro.bvh.traversal import batched_nearest, traversal_engine
from repro.core.emst import emst
from repro.kokkos.counters import CostCounters
from repro.kokkos.costmodel import simulate_seconds
from repro.kokkos.devices import A100, EPYC_7763_SEQ
from repro.mst.boruvka import boruvka_graph
from repro.mst.kruskal import kruskal


class TestCountersConsistency:
    def test_traversal_counter_relationships_reference(self, rng):
        pts = rng.random((500, 3))
        bvh = build_bvh(pts)
        counters = CostCounters()
        with traversal_engine("reference"):
            batched_nearest(bvh, pts[:100], counters=counters)
        # Every popped node evaluates its own box + two child boxes at
        # most; leaf evaluations never exceed leaf visits.
        assert counters.box_distance_evals <= 3 * counters.nodes_visited
        assert counters.distance_evals == counters.leaf_visits
        # Lane steps equal the number of pops (one pop per active lane
        # per iteration).
        assert counters.lane_steps == counters.nodes_visited

    def test_emst_counters_monotone_in_n(self):
        rng = np.random.default_rng(0)
        small = emst(rng.random((500, 2))).total_counters
        big = emst(rng.random((2000, 2))).total_counters
        assert big.distance_evals > small.distance_evals
        assert big.nodes_visited > small.nodes_visited
        assert big.sort_elements > small.sort_elements

    def test_phase_pricing_sums(self, rng):
        result = emst(rng.random((300, 3)))
        total = sum(simulate_seconds(counters, A100).seconds
                    for counters in result.counters.values())
        merged = result.total_counters
        # Merging counters changes saturation (max_batch) only, which is
        # identical here, so the sum of phase prices ~ price of the merge.
        assert total == pytest.approx(
            simulate_seconds(merged, A100).seconds, rel=0.05)

    def test_sequential_pricing_phase_additive(self, rng):
        result = emst(rng.random((300, 3)))
        per_phase = {name: simulate_seconds(counters, EPYC_7763_SEQ).seconds
                     for name, counters in result.counters.items()}
        assert all(v > 0 for v in per_phase.values())
        assert per_phase["mst"] > per_phase["tree"]


class TestGraphMSTCorners:
    def test_boruvka_two_parallel_equal_edges(self):
        # Equal-weight parallel edges must not create a cycle.
        mu, mv, mw = boruvka_graph(2, np.array([0, 0]), np.array([1, 1]),
                                   np.array([1.0, 1.0]))
        assert mu.size == 1

    def test_boruvka_complete_k4_equal_weights(self):
        u, v = np.triu_indices(4, 1)
        mu, mv, mw = boruvka_graph(4, u, v, np.ones(u.size))
        assert mu.size == 3
        assert mw.sum() == 3.0

    def test_kruskal_empty_graph(self):
        mu, mv, mw = kruskal(3, np.empty(0, int), np.empty(0, int),
                             np.empty(0, float))
        assert mu.size == 0

    def test_kruskal_self_loop_is_ignored(self):
        mu, mv, mw = kruskal(2, np.array([0, 0]), np.array([0, 1]),
                             np.array([0.5, 1.0]))
        assert list(zip(mu, mv)) == [(0, 1)]


class TestDelaunayCorners:
    def test_duplicate_points(self, rng):
        pts = np.repeat(rng.random((10, 2)), 3, axis=0)
        u, v, w = delaunay_emst_2d(pts)
        from repro.baselines.naive import brute_force_emst
        _, _, w0 = brute_force_emst(pts)
        assert w.sum() == pytest.approx(float(w0.sum()))

    def test_single_point(self):
        u, v, w = delaunay_emst_2d(np.array([[0.0, 0.0]]))
        assert u.size == 0

    def test_coincident_cluster_plus_line(self):
        pts = np.concatenate([np.zeros((5, 2)),
                              np.stack([np.arange(1.0, 6.0),
                                        np.zeros(5)], axis=1)])
        u, v, w = delaunay_emst_2d(pts)
        assert w.sum() == pytest.approx(5.0)


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro
        assert repro.__version__ == "1.1.0"

    def test_emst_accepts_lists(self):
        result = emst(np.asarray([[0.0, 0.0], [1.0, 0.0]]))
        assert result.total_weight == 1.0

    def test_float32_input_upcast(self, rng):
        pts32 = rng.random((100, 2)).astype(np.float32)
        result = emst(pts32)
        assert result.weights.dtype == np.float64
        from repro.baselines.naive import brute_force_emst
        _, _, w = brute_force_emst(pts32.astype(np.float64))
        assert result.total_weight == pytest.approx(float(w.sum()))

    def test_fortran_order_input(self, rng):
        pts = np.asfortranarray(rng.random((120, 3)))
        result = emst(pts)
        assert result.edges.shape == (119, 2)

    def test_readonly_input(self, rng):
        pts = rng.random((80, 2))
        pts.setflags(write=False)
        result = emst(pts)
        assert result.edges.shape == (79, 2)
