"""Stress tests: pathological geometries through the full pipeline."""

import numpy as np
import pytest

from repro.baselines.naive import brute_force_emst
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst
from repro.mst.validate import is_spanning_tree


def assert_valid(points, result):
    n = len(points)
    assert is_spanning_tree(n, result.edges[:, 0], result.edges[:, 1])
    if n <= 400:
        _, _, w = brute_force_emst(points)
        assert result.total_weight == pytest.approx(float(w.sum()))


class TestDegenerateGeometry:
    def test_all_identical_points(self):
        pts = np.ones((100, 3)) * 0.37
        result = emst(pts)
        assert result.total_weight == 0.0
        assert_valid(pts, result)

    def test_two_distinct_locations(self):
        pts = np.concatenate([np.zeros((50, 2)), np.ones((50, 2))])
        result = emst(pts)
        assert result.total_weight == pytest.approx(np.sqrt(2.0))
        assert_valid(pts, result)

    def test_collinear_equispaced(self):
        pts = np.stack([np.arange(200.0), np.zeros(200)], axis=1)
        result = emst(pts)
        assert result.total_weight == pytest.approx(199.0)

    def test_points_on_circle(self):
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        result = emst(pts)
        assert_valid(pts, result)
        # A circle's EMST is the polygon minus one edge.
        side = np.linalg.norm(pts[1] - pts[0])
        assert result.total_weight == pytest.approx(127 * side)

    def test_axis_aligned_plane_in_3d(self, rng):
        pts = rng.random((300, 3))
        pts[:, 2] = 0.5
        assert_valid(pts, emst(pts))

    def test_extreme_aspect_ratio(self, rng):
        pts = rng.random((200, 2)) * np.array([1e8, 1e-8])
        assert_valid(pts, emst(pts))

    def test_negative_coordinates(self, rng):
        pts = rng.random((150, 3)) - 10.0
        assert_valid(pts, emst(pts))

    def test_mixed_scales(self, rng):
        near = rng.random((100, 2)) * 1e-6
        far = rng.random((100, 2)) * 1e6 + 1e6
        pts = np.concatenate([near, far])
        assert_valid(pts, emst(pts))

    def test_one_outlier(self, rng):
        pts = np.concatenate([rng.random((199, 3)),
                              np.array([[1e6, 1e6, 1e6]])])
        result = emst(pts)
        assert_valid(pts, result)
        assert result.weights.max() > 1e5  # the outlier bridge

    def test_power_of_two_sizes(self, rng):
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            pts = rng.random((n, 2))
            assert_valid(pts, emst(pts))

    def test_off_power_sizes(self, rng):
        for n in (3, 5, 17, 63, 129, 255):
            pts = rng.random((n, 3))
            assert_valid(pts, emst(pts))


class TestConfigurations:
    @pytest.mark.parametrize("tree_type", ["bvh", "kdtree"])
    def test_backends_on_degenerate_data(self, tree_type):
        pts = np.concatenate([np.zeros((30, 2)),
                              np.stack([np.arange(30.0),
                                        np.zeros(30)], axis=1)])
        result = emst(pts, config=SingleTreeConfig(tree_type=tree_type))
        assert_valid(pts, result)

    def test_high_resolution_on_identical_points(self):
        pts = np.ones((64, 3))
        result = emst(pts, config=SingleTreeConfig(high_resolution=True))
        assert result.total_weight == 0.0

    def test_all_flags_off_still_exact(self, rng):
        pts = rng.random((250, 3))
        config = SingleTreeConfig(subtree_skipping=False,
                                  component_bounds=False)
        assert_valid(pts, emst(pts, config=config))
