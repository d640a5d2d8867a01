"""Tests for Morton codes (repro.geometry.morton)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DimensionError, InvalidInputError
from repro.geometry.morton import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    bit_length_u64,
    common_prefix_length,
    morton_encode,
    morton_encode_scalar,
    normalize_to_grid,
)


class TestNormalizeToGrid:
    def test_range(self, rng):
        grid = normalize_to_grid(rng.random((100, 3)), 10)
        assert grid.min() >= 0
        assert grid.max() <= 2**10 - 1

    def test_corners_hit_extremes(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        grid = normalize_to_grid(pts, 8)
        assert grid[0].tolist() == [0, 0]
        assert grid[1].tolist() == [255, 255]

    def test_degenerate_axis_maps_to_zero(self):
        pts = np.array([[0.0, 5.0], [1.0, 5.0]])
        grid = normalize_to_grid(pts, 8)
        assert np.all(grid[:, 1] == 0)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            normalize_to_grid(np.array([[np.nan, 0.0]]), 8)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            normalize_to_grid(np.empty((0, 2)), 8)

    def test_explicit_bounds(self):
        pts = np.array([[0.5, 0.5]])
        grid = normalize_to_grid(pts, 8, lo=np.zeros(2), hi=np.ones(2))
        assert np.all(np.abs(grid[0].astype(float) - 127.5) <= 0.5)


class TestEncode:
    @pytest.mark.parametrize("d,bits", [(2, MAX_BITS_2D), (3, MAX_BITS_3D)])
    def test_matches_scalar_reference(self, rng, d, bits):
        pts = rng.random((200, d))
        codes = morton_encode(pts)
        grid = normalize_to_grid(pts, bits)
        for i in range(0, 200, 7):
            ref = morton_encode_scalar(tuple(int(g) for g in grid[i]), bits)
            assert ref == int(codes[i])

    def test_interleaving_2d_manual(self):
        # grid (1, 0) -> bit 0 set; grid (0, 1) -> bit 1 set.
        assert morton_encode_scalar((1, 0), 4) == 0b01
        assert morton_encode_scalar((0, 1), 4) == 0b10
        assert morton_encode_scalar((1, 1), 4) == 0b11
        assert morton_encode_scalar((2, 0), 4) == 0b100

    def test_interleaving_3d_manual(self):
        assert morton_encode_scalar((1, 0, 0), 4) == 0b001
        assert morton_encode_scalar((0, 1, 0), 4) == 0b010
        assert morton_encode_scalar((0, 0, 1), 4) == 0b100
        assert morton_encode_scalar((1, 1, 1), 4) == 0b111

    def test_rejects_4d(self, rng):
        with pytest.raises(DimensionError):
            morton_encode(rng.random((10, 4)))

    def test_rejects_bits_out_of_range(self, rng):
        with pytest.raises(InvalidInputError):
            morton_encode(rng.random((10, 3)), bits=22)
        with pytest.raises(InvalidInputError):
            morton_encode(rng.random((10, 2)), bits=0)

    def test_locality(self, rng):
        # Points closer in space tend to be closer in code (weak check:
        # identical grid cells give identical codes).
        pts = np.array([[0.1, 0.1], [0.100001, 0.100001], [0.9, 0.9]])
        codes = morton_encode(pts, bits=8)
        assert codes[0] == codes[1]
        assert codes[0] != codes[2]

    @given(st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1),
           st.integers(0, 2**21 - 1))
    def test_scalar_3d_bijective_on_grid(self, x, y, z):
        code = morton_encode_scalar((x, y, z), 21)
        # Decode by extracting every third bit.
        dx = sum(((code >> (3 * b)) & 1) << b for b in range(21))
        dy = sum(((code >> (3 * b + 1)) & 1) << b for b in range(21))
        dz = sum(((code >> (3 * b + 2)) & 1) << b for b in range(21))
        assert (dx, dy, dz) == (x, y, z)


class TestBitLength:
    def test_known_values(self):
        x = np.array([0, 1, 2, 3, 255, 256, 2**31, 2**32, 2**63, 2**64 - 1],
                     dtype=np.uint64)
        expected = [0, 1, 2, 2, 8, 9, 32, 33, 64, 64]
        assert bit_length_u64(x).tolist() == expected

    @given(st.integers(0, 2**64 - 1))
    def test_matches_python(self, value):
        got = int(bit_length_u64(np.array([value], dtype=np.uint64))[0])
        assert got == value.bit_length()


class TestCommonPrefix:
    def test_identical_codes_use_index_tiebreak(self):
        codes = np.array([5, 5, 5], dtype=np.uint64)
        d01 = common_prefix_length(codes, np.array([0]), np.array([1]))
        d02 = common_prefix_length(codes, np.array([0]), np.array([2]))
        assert d01[0] > 64  # beyond the code length
        assert d01[0] != d02[0]  # indices 1 and 2 differ

    def test_out_of_range_is_minus_one(self):
        codes = np.array([1, 2], dtype=np.uint64)
        assert common_prefix_length(codes, np.array([0]), np.array([-1]))[0] == -1
        assert common_prefix_length(codes, np.array([0]), np.array([2]))[0] == -1

    def test_prefix_value(self):
        codes = np.array([0b1000, 0b1001], dtype=np.uint64)
        d = common_prefix_length(codes, np.array([0]), np.array([1]))
        assert d[0] == 63  # differ only in the lowest bit

    def test_monotone_away_from_neighbor(self):
        codes = np.sort(np.array([3, 9, 17, 250, 251, 260], dtype=np.uint64))
        i = np.array([2, 2])
        j = np.array([3, 5])
        d = common_prefix_length(codes, i, j)
        assert d[0] >= d[1]
