"""Tests for the kd-tree backend (repro.core.kdtree_backend)."""

import numpy as np
import pytest

from repro.baselines.naive import brute_force_emst, brute_force_mrd_emst
from repro.bvh import batched_knn, batched_nearest, check_bvh_invariants
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.core.kdtree_backend import _layout, kdtree_as_bvh
from repro.errors import InvalidInputError
from repro.mst.validate import edges_canonical

KD = SingleTreeConfig(tree_type="kdtree")


def layout_loop(n):
    """The node layout by the depth-first loop ``_layout`` replaces:
    ``left``, ``right`` and the segments in pop order."""
    leaf_base = n - 1
    left = np.empty(n - 1, dtype=np.int64)
    right = np.empty(n - 1, dtype=np.int64)
    segments = []
    n_internal = 1
    stack = [(0, 0, n)]
    while stack:
        node, s, e = stack.pop()
        segments.append((s, e))
        mid = s + (e - s) // 2
        for children, (cs, ce) in ((left, (s, mid)), (right, (mid, e))):
            if ce - cs == 1:
                children[node] = leaf_base + cs
            else:
                children[node] = n_internal
                stack.append((n_internal, cs, ce))
                n_internal += 1
    return left, right, segments


class TestLayout:
    @pytest.mark.parametrize("sizes", [range(2, 400), [1000, 4097, 10000,
                                                      65537]],
                             ids=["2-399", "large"])
    def test_matches_the_loop(self, sizes):
        for n in sizes:
            left, right, segments = _layout(n)
            want_left, want_right, want_segments = layout_loop(n)
            assert np.array_equal(left, want_left), n
            assert np.array_equal(right, want_right), n
            assert sorted(map(tuple, segments.tolist())) == \
                sorted(want_segments), n

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 333])
    def test_parents_come_before_children(self, n):
        # A cold build partitions each segment after its parent's, and
        # the segments of one level are disjoint, so level order splits
        # the points as the depth-first order did.
        segments = _layout(n)[2]
        at = {tuple(seg): i for i, seg in enumerate(segments.tolist())}
        assert at[(0, n)] == 0
        for s, e in segments.tolist():
            mid = s + (e - s) // 2
            for child in ((s, mid), (mid, e)):
                if child[1] - child[0] > 1:
                    assert at[child] > at[(s, e)], (n, child)


class TestStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 333])
    def test_invariants(self, rng, n):
        tree = kdtree_as_bvh(rng.random((n, 3)))
        check_bvh_invariants(tree)

    def test_duplicates(self, rng):
        pts = np.repeat(rng.random((6, 2)), 12, axis=0)
        check_bvh_invariants(kdtree_as_bvh(pts))

    def test_collinear(self):
        pts = np.stack([np.linspace(0, 1, 50), np.zeros(50)], axis=1)
        check_bvh_invariants(kdtree_as_bvh(pts))

    def test_order_is_permutation(self, rng):
        tree = kdtree_as_bvh(rng.random((100, 2)))
        assert np.array_equal(np.sort(tree.order), np.arange(100))

    def test_balanced_height(self, rng):
        tree = kdtree_as_bvh(rng.random((1024, 3)))
        assert tree.height <= 12  # median splits: ceil(log2(1024)) + slack

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            kdtree_as_bvh(np.array([[np.nan, 0.0]]))


class TestQueriesOnKdTree:
    def test_nearest_matches_scipy(self, rng):
        from scipy.spatial import cKDTree
        pts = rng.random((300, 3))
        tree = kdtree_as_bvh(pts)
        q = rng.random((100, 3))
        res = batched_nearest(tree, q)
        d_ref, _ = cKDTree(tree.points).query(q)
        assert np.allclose(np.sqrt(res.distance_sq), d_ref)

    def test_knn_matches_scipy(self, rng):
        from scipy.spatial import cKDTree
        pts = rng.random((200, 2))
        tree = kdtree_as_bvh(pts)
        res = batched_knn(tree, tree.points, 5)
        d_ref, _ = cKDTree(tree.points).query(tree.points, k=5)
        assert np.allclose(np.sqrt(res.distance_sq), d_ref)


class TestEMSTOnKdTree:
    @pytest.mark.parametrize("n,d,seed", [(2, 2, 0), (40, 3, 1), (150, 2, 2)])
    def test_matches_oracle(self, n, d, seed):
        pts = np.random.default_rng(seed).random((n, d))
        r = emst(pts, config=KD)
        u, v, w = brute_force_emst(pts)
        assert r.total_weight == pytest.approx(float(w.sum()))
        assert edges_canonical(r.edges[:, 0], r.edges[:, 1]) == \
            edges_canonical(u, v)

    def test_identical_to_bvh_backend(self, rng):
        pts = rng.random((200, 3))
        r_bvh = emst(pts)
        r_kd = emst(pts, config=KD)
        assert np.array_equal(r_bvh.edges, r_kd.edges)
        assert np.allclose(r_bvh.weights, r_kd.weights)

    def test_grid_ties(self):
        import itertools
        pts = np.array(list(itertools.product(range(6), range(6))),
                       dtype=float)
        r = emst(pts, config=KD)
        assert r.total_weight == pytest.approx(35.0)

    def test_mrd_matches_oracle(self, rng):
        pts = rng.random((70, 2))
        r = mutual_reachability_emst(pts, 4, config=KD)
        _, _, w = brute_force_mrd_emst(pts, 4)
        assert r.total_weight == pytest.approx(float(w.sum()))

    def test_ablation_flags_work(self, rng):
        pts = rng.random((100, 2))
        config = SingleTreeConfig(tree_type="kdtree",
                                  subtree_skipping=False,
                                  component_bounds=False)
        r = emst(pts, config=config)
        u, v, w = brute_force_emst(pts)
        assert r.total_weight == pytest.approx(float(w.sum()))

    def test_unknown_tree_type(self, rng):
        with pytest.raises(InvalidInputError):
            emst(rng.random((10, 2)),
                 config=SingleTreeConfig(tree_type="octree"))

    def test_morton_options_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            emst(rng.random((10, 2)),
                 config=SingleTreeConfig(tree_type="kdtree",
                                         high_resolution=True))
