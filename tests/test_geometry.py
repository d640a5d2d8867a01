"""Tests for the distance kernels (repro.geometry)."""

import numpy as np
import pytest
from hypothesis import given

from repro.errors import InvalidInputError
from repro.geometry.distance import (
    all_pairs_sq,
    box_box_sq,
    gather_pair_sq,
    gathered_points_sq,
    point_box_sq,
    points_sq,
)
from tests.conftest import finite_points


class TestPointDistances:
    def test_points_sq(self):
        assert points_sq(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_points_sq_batched(self, rng):
        a = rng.random((50, 3))
        b = rng.random((50, 3))
        d = points_sq(a, b)
        ref = np.sum((a - b) ** 2, axis=1)
        assert np.allclose(d, ref)

    def test_gather_pair(self, rng):
        pts = rng.random((20, 2))
        d = gather_pair_sq(pts, np.array([0, 1]), np.array([2, 3]))
        assert np.allclose(d, [points_sq(pts[0], pts[2]),
                               points_sq(pts[1], pts[3])])

    def test_point_box_inside_is_zero(self):
        d = point_box_sq(np.array([0.5, 0.5]), np.zeros(2), np.ones(2))
        assert d == 0.0

    def test_point_box_outside(self):
        d = point_box_sq(np.array([2.0, 0.5]), np.zeros(2), np.ones(2))
        assert d == 1.0

    def test_point_box_corner(self):
        d = point_box_sq(np.array([2.0, 2.0]), np.zeros(2), np.ones(2))
        assert d == 2.0

    @given(finite_points(min_n=2, max_n=30))
    def test_point_box_is_lower_bound(self, pts):
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        q = pts[0] + 10.0
        bound = point_box_sq(q, lo, hi)
        exact = points_sq(q[None, :], pts)
        assert np.all(bound <= exact + 1e-9)


#: 2^-27 (1 + 2^-20): from the origin, (1, DELTA, DELTA) sums to 1.0 left
#: to right but to 1.0000000000000002 under any other association.
DELTA = 2.0 ** -27 * (1 + 2.0 ** -20)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _cols(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)


class TestGatheredDistances:
    """The per-dimension pair kernel equals the row-layout oracle bit for
    bit.

    The Optimization-2 bound scan computes its pair distances with
    :func:`gathered_points_sq` while the reference traversal uses
    :func:`points_sq`; the byte-identity contract rests on NumPy summing a
    short last axis left to right, which these tests pin for every NumPy
    the suite runs on.
    """

    @staticmethod
    def _pairs(a, b):
        idx = np.arange(len(a))
        got = gathered_points_sq(_cols(a), idx, _cols(b), idx)
        want = points_sq(np.asarray(a, float), np.asarray(b, float))
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("d", [2, 3])
    def test_delta_pair(self, d):
        a = np.zeros((2, d))
        b = np.array([[1.0, DELTA, DELTA][:d], [DELTA, DELTA, 1.0][:d]])
        self._pairs(a, b)
        self._pairs(b, a)
        if d == 3:  # left to right; any other association rounds up
            assert points_sq(a[0], b[0]) == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_inside_outside_and_on_faces(self, d):
        hi = np.ones(d)
        points = [np.full(d, 0.5), np.full(d, 2.0), np.full(d, -1.5),
                  np.full(d, 0.0), np.full(d, 1.0)]
        for k in range(d):
            for value in (0.0, 1.0, -0.25, 1.75):
                q = np.full(d, 0.5)
                q[k] = value
                points.append(q)
        p = np.array(points)
        self._pairs(p, np.tile(hi, (len(p), 1)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_signed_zeros(self, d):
        signs = np.array(np.meshgrid(*[[0.0, -0.0, 1.0]] * d)).reshape(d, -1).T
        a = np.repeat(signs, len(signs), axis=0)
        b = np.tile(signs, (len(signs), 1))
        self._pairs(a, b)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_rows(self, d):
        rng = np.random.default_rng(20_000 + d)
        pts = rng.normal(size=(2_000, d)) * 10.0 ** rng.integers(-3, 4, d)
        ia = rng.integers(0, len(pts), 10_000)
        ib = rng.integers(0, len(pts), 10_000)
        got = gathered_points_sq(_cols(pts), ia, _cols(pts), ib)
        assert np.array_equal(_bits(got), _bits(points_sq(pts[ia], pts[ib])))


class TestBoxBox:
    def test_overlapping_is_zero(self):
        d = box_box_sq(np.zeros(2), np.ones(2),
                       np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert d == 0.0

    def test_gap(self):
        d = box_box_sq(np.zeros(2), np.ones(2),
                       np.array([3.0, 0.0]), np.array([4.0, 1.0]))
        assert d == 4.0


class TestAllPairs:
    def test_matches_pairwise(self, rng):
        pts = rng.random((30, 3))
        d2 = all_pairs_sq(pts)
        for i in (0, 7, 29):
            for j in (3, 15):
                assert d2[i, j] == pytest.approx(points_sq(pts[i], pts[j]),
                                                 abs=1e-9)

    def test_symmetric_zero_diagonal(self, rng):
        d2 = all_pairs_sq(rng.random((20, 2)))
        assert np.allclose(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)

    def test_nonnegative_despite_rounding(self, rng):
        pts = np.repeat(rng.random((2, 3)), 10, axis=0)
        assert np.all(all_pairs_sq(pts) >= 0.0)

    def test_refuses_large(self):
        with pytest.raises(InvalidInputError):
            all_pairs_sq(np.zeros((20_001, 2)))
