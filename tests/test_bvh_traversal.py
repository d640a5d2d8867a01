"""Tests for batched BVH traversals (repro.bvh.traversal)."""

import numpy as np
import pytest
from hypothesis import given
from scipy.spatial import cKDTree

from repro.bvh import batched_knn, batched_nearest, build_bvh
from repro.bvh.traversal import INVALID_LABEL, pair_keys
from repro.core.labels import reduce_labels
from repro.errors import InvalidInputError
from repro.kokkos.counters import CostCounters
from tests.conftest import finite_points


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(5)
    pts = rng.random((400, 3))
    bvh = build_bvh(pts)
    queries = rng.random((150, 3))
    return bvh, queries


class TestPairKeys:
    def test_symmetric(self):
        a = np.array([3, 10])
        b = np.array([10, 3])
        assert pair_keys(a, b)[0] == pair_keys(b, a)[0]

    def test_orders_lexicographically(self):
        k1 = pair_keys(np.array([1]), np.array([5]))[0]
        k2 = pair_keys(np.array([1]), np.array([6]))[0]
        k3 = pair_keys(np.array([2]), np.array([3]))[0]
        assert k1 < k2 < k3


class TestNearest:
    def test_matches_scipy(self, world):
        bvh, queries = world
        res = batched_nearest(bvh, queries)
        d_ref, i_ref = cKDTree(bvh.points).query(queries)
        assert np.allclose(np.sqrt(res.distance_sq), d_ref)
        assert np.array_equal(res.position, i_ref)

    def test_self_query_returns_self_without_exclusion(self, world):
        bvh, _ = world
        res = batched_nearest(bvh, bvh.points)
        assert np.allclose(res.distance_sq, 0.0)

    def test_exclude_position(self, world):
        # Singleton labels keep each query from its own point.
        bvh, _ = world
        labels = np.arange(bvh.n)
        res = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=reduce_labels(bvh, labels))
        d_ref, i_ref = cKDTree(bvh.points).query(bvh.points, k=2)
        assert np.allclose(np.sqrt(res.distance_sq), d_ref[:, 1])
        assert np.array_equal(res.position, i_ref[:, 1])

    def test_initial_radius_can_exclude_everything(self, world):
        bvh, queries = world
        res = batched_nearest(bvh, queries,
                              init_radius_sq=np.full(len(queries), 1e-20))
        assert np.all(~res.found | (res.distance_sq <= 1e-20))

    def test_initial_radius_inclusive_boundary(self):
        # A neighbor at exactly the initial radius must be found (the
        # <=-pruning that Borůvka's upper bounds rely on).
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        bvh = build_bvh(pts)
        q = np.array([[2.0, 0.0]])
        res = batched_nearest(bvh, q, init_radius_sq=np.array([1.0]))
        assert res.found[0]
        assert res.distance_sq[0] == 1.0

    def test_label_constraint(self, world):
        bvh, _ = world
        labels = np.arange(bvh.n) % 2
        node_labels = np.full(bvh.n_nodes, INVALID_LABEL, dtype=np.int64)
        node_labels[bvh.leaf_base:] = labels
        res = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=node_labels)
        assert np.all(res.found)
        assert np.all(labels[res.position] != labels)

    def test_label_constraint_brute_force(self, rng):
        pts = rng.random((60, 2))
        bvh = build_bvh(pts)
        labels = rng.integers(0, 3, size=60)
        node_labels = np.full(bvh.n_nodes, INVALID_LABEL, dtype=np.int64)
        node_labels[bvh.leaf_base:] = labels
        res = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=node_labels)
        d2 = np.sum((bvh.points[:, None] - bvh.points[None]) ** 2, axis=2)
        d2[labels[:, None] == labels[None, :]] = np.inf
        expect = d2.min(axis=1)
        assert np.allclose(res.distance_sq, expect)

    def test_single_component_finds_nothing(self, rng):
        pts = rng.random((30, 2))
        bvh = build_bvh(pts)
        labels = np.zeros(30, dtype=np.int64)
        node_labels = np.zeros(bvh.n_nodes, dtype=np.int64)
        res = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=node_labels)
        assert not np.any(res.found)

    def test_tie_break_picks_smallest_pair(self):
        # Query equidistant from two points: the tie-break key must pick
        # the smaller (min, max) pair.
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        bvh = build_bvh(pts)
        ids = np.array([10])
        point_ids = np.empty(3, dtype=np.int64)
        point_ids[:] = [7, 3, 9][0:3]
        # sorted positions map: find which sorted pos has which id
        point_ids_sorted = point_ids[bvh.order]
        res = batched_nearest(bvh, np.array([[0.0, 0.0]]),
                              query_ids=ids, point_ids=point_ids_sorted)
        chosen_id = point_ids_sorted[res.position[0]]
        assert chosen_id == 3  # (3, 10) < (7, 10)

    def test_single_point_tree(self):
        bvh = build_bvh(np.array([[0.5, 0.5]]))
        res = batched_nearest(bvh, np.array([[0.0, 0.0]]))
        assert res.found[0]
        assert res.position[0] == 0

    def test_counters_populated(self, world):
        bvh, queries = world
        counters = CostCounters()
        batched_nearest(bvh, queries, counters=counters)
        assert counters.distance_evals > 0
        assert counters.nodes_visited > 0
        assert counters.warp_steps > 0
        assert counters.lane_steps >= counters.warp_steps

    def test_rejects_dim_mismatch(self, world):
        bvh, _ = world
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, np.zeros((5, 2)))

    @given(finite_points(min_n=2, max_n=50))
    def test_property_matches_brute_force(self, pts):
        bvh = build_bvh(pts)
        q = pts[: min(10, len(pts))] + 0.25
        res = batched_nearest(bvh, q)
        d2 = np.sum((q[:, None] - bvh.points[None]) ** 2, axis=2)
        assert np.allclose(res.distance_sq, d2.min(axis=1), rtol=1e-12)


class TestMutualReachability:
    def test_mrd_nearest_matches_brute_force(self, rng):
        pts = rng.random((80, 2))
        bvh = build_bvh(pts)
        core_sq = rng.random(80) * 0.05
        labels = rng.integers(0, 4, size=80)
        node_labels = np.full(bvh.n_nodes, INVALID_LABEL, dtype=np.int64)
        node_labels[bvh.leaf_base:] = labels
        res = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=node_labels,
                              query_core_sq=core_sq, point_core_sq=core_sq)
        d2 = np.sum((bvh.points[:, None] - bvh.points[None]) ** 2, axis=2)
        m = np.maximum(d2, core_sq[:, None])
        m = np.maximum(m, core_sq[None, :])
        m[labels[:, None] == labels[None, :]] = np.inf
        assert np.allclose(res.distance_sq, m.min(axis=1))

    def test_core_requires_both_sides(self, world):
        bvh, queries = world
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, queries,
                            query_core_sq=np.zeros(len(queries)))


class TestKnn:
    def test_matches_scipy(self, world):
        bvh, queries = world
        for k in (1, 3, 8):
            res = batched_knn(bvh, queries, k)
            d_ref, i_ref = cKDTree(bvh.points).query(queries, k=k)
            if k == 1:
                d_ref = d_ref[:, None]
            assert np.allclose(np.sqrt(res.distance_sq), d_ref)

    def test_self_included(self, world):
        bvh, _ = world
        res = batched_knn(bvh, bvh.points, 1)
        assert np.allclose(res.distance_sq, 0.0)
        assert np.array_equal(res.positions[:, 0], np.arange(bvh.n))

    def test_kth_column_is_core_distance(self, world):
        bvh, _ = world
        res = batched_knn(bvh, bvh.points, 4)
        d_ref, _ = cKDTree(bvh.points).query(bvh.points, k=4)
        assert np.allclose(np.sqrt(res.kth_distance_sq), d_ref[:, 3])

    def test_k_exceeding_n_pads_with_inf(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        bvh = build_bvh(pts)
        res = batched_knn(bvh, bvh.points, 5)
        assert np.all(np.isinf(res.distance_sq[:, 2:]))
        assert np.all(res.positions[:, 2:] == -1)

    def test_sorted_rows(self, world):
        bvh, queries = world
        res = batched_knn(bvh, queries, 6)
        assert np.all(np.diff(res.distance_sq, axis=1) >= 0)

    def test_rejects_bad_k(self, world):
        bvh, queries = world
        with pytest.raises(InvalidInputError):
            batched_knn(bvh, queries, 0)

    def test_single_point_tree(self):
        bvh = build_bvh(np.array([[0.0, 0.0]]))
        res = batched_knn(bvh, np.array([[1.0, 0.0]]), 2)
        assert res.distance_sq[0, 0] == 1.0
        assert np.isinf(res.distance_sq[0, 1])
