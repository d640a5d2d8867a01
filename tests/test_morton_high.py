"""Tests for double-resolution (128-bit) Morton codes — the GeoLife fix."""

import numpy as np
import pytest

from repro.baselines.naive import brute_force_emst
from repro.bvh import build_bvh, check_bvh_invariants
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst
from repro.data import geolife
from repro.errors import DimensionError, InvalidInputError
from repro.geometry.morton import (
    common_prefix_length_high,
    morton_encode,
    morton_encode_high,
)
from repro.mst.validate import edges_canonical


class TestEncodeHigh:
    def test_refines_64bit_order(self, rng):
        # The high word at full-dimension granularity must order points
        # identically to the single-word code of the same resolution.
        pts = rng.random((300, 3))
        hi, lo = morton_encode_high(pts)
        coarse = morton_encode(pts, bits=21)
        order_hi = np.argsort(hi, kind="stable")
        order_coarse = np.argsort(coarse, kind="stable")
        # hi interleaves the top 21 of 42 bits, i.e. exactly the 21-bit
        # grid: same codes up to scaling, hence the same stable order.
        assert np.array_equal(order_hi, order_coarse)

    def test_resolves_subcell_structure(self):
        # Points inside one coarse (21-bit) cell share hi but differ in lo.
        # Construct exact grid coordinates: coarse cell 1000, two fine
        # offsets well inside it.
        scale = 2.0**42 - 1.0
        x1 = (1000 * 2**21 + 5) / scale
        x2 = (1000 * 2**21 + 90_000) / scale
        pts = np.array([
            [x1, x1, x1],
            [x2, x1, x1],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
        ])
        hi, lo = morton_encode_high(pts)
        assert hi[0] == hi[1]
        assert lo[0] != lo[1]

    def test_resolves_geolife_hotspots(self):
        pts = geolife(3000, seed=0)
        codes64 = morton_encode(pts)
        hi, lo = morton_encode_high(pts)
        pairs = np.stack([hi, lo], axis=1)
        unique64 = np.unique(codes64).size
        unique128 = np.unique(pairs, axis=0).shape[0]
        assert unique64 < 0.5 * len(pts)  # the pathology
        assert unique128 > 0.99 * len(pts)  # the fix

    def test_2d_supported(self, rng):
        hi, lo = morton_encode_high(rng.random((50, 2)))
        assert hi.shape == lo.shape == (50,)

    def test_rejects_4d(self, rng):
        with pytest.raises(DimensionError):
            morton_encode_high(rng.random((10, 4)))


class TestPrefixHigh:
    def test_hi_difference_dominates(self):
        hi = np.array([0b10, 0b11], dtype=np.uint64)
        lo = np.array([0, 0], dtype=np.uint64)
        d = common_prefix_length_high(hi, lo, np.array([0]), np.array([1]))
        assert d[0] == 63

    def test_lo_difference_offsets_by_64(self):
        hi = np.array([7, 7], dtype=np.uint64)
        lo = np.array([0b100, 0b101], dtype=np.uint64)
        d = common_prefix_length_high(hi, lo, np.array([0]), np.array([1]))
        assert d[0] == 127

    def test_full_tie_uses_index(self):
        hi = np.array([1, 1], dtype=np.uint64)
        lo = np.array([2, 2], dtype=np.uint64)
        d = common_prefix_length_high(hi, lo, np.array([0]), np.array([1]))
        assert d[0] > 128

    def test_out_of_range(self):
        hi = np.array([1], dtype=np.uint64)
        lo = np.array([1], dtype=np.uint64)
        assert common_prefix_length_high(hi, lo, np.array([0]),
                                         np.array([5]))[0] == -1


class TestHighResolutionBVH:
    def test_invariants(self, rng):
        for n in (2, 3, 50, 400):
            bvh = build_bvh(rng.random((n, 3)), high_resolution=True)
            check_bvh_invariants(bvh)
            hi, lo = morton_encode_high(bvh.points)
            assert np.all((hi[:-1] < hi[1:])
                          | ((hi[:-1] == hi[1:]) & (lo[:-1] <= lo[1:])))

    def test_duplicates(self, rng):
        pts = np.repeat(rng.random((5, 2)), 10, axis=0)
        bvh = build_bvh(pts, high_resolution=True)
        check_bvh_invariants(bvh)

    def test_exclusive_with_bits(self, rng):
        with pytest.raises(InvalidInputError):
            build_bvh(rng.random((10, 2)), bits=8, high_resolution=True)

    def test_emst_identical_result(self, rng):
        pts = rng.random((150, 3))
        r64 = emst(pts)
        r128 = emst(pts, config=SingleTreeConfig(high_resolution=True))
        assert r64.total_weight == pytest.approx(r128.total_weight)
        assert edges_canonical(r64.edges[:, 0], r64.edges[:, 1]) == \
            edges_canonical(r128.edges[:, 0], r128.edges[:, 1])

    def test_emst_matches_oracle(self, rng):
        pts = rng.random((90, 2))
        r = emst(pts, config=SingleTreeConfig(high_resolution=True))
        u, v, w = brute_force_emst(pts)
        assert r.total_weight == pytest.approx(float(w.sum()))

    def test_geolife_gets_cheaper(self):
        pts = geolife(2500, seed=1)
        r64 = emst(pts)
        r128 = emst(pts, config=SingleTreeConfig(high_resolution=True))
        assert r64.total_weight == pytest.approx(r128.total_weight)
        assert r128.total_counters.nodes_visited < \
            r64.total_counters.nodes_visited
