"""Tests for LBVH construction (repro.bvh.build / bvh / refit / validate)."""

import numpy as np
import pytest
from hypothesis import given

from repro.bvh import (
    build_bvh,
    check_bvh_invariants,
    karras_hierarchy,
    karras_hierarchy_scalar,
    traversal_engine,
)
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.bvh.traversal import ENGINES
from repro.errors import InvalidInputError
from repro.geometry.morton import morton_encode
from repro.kokkos.counters import CostCounters
from tests.conftest import finite_points


def sorted_codes(pts):
    return np.sort(morton_encode(pts))


#: Figure 3 of Karras (2012): eight sorted 5-bit codes and the hierarchy
#: drawn over them, with leaf j as node 7 + j.  kwohlfahrt/collision pins
#: its generateBVH kernel on the same figure.
FIGURE3_CODES = [0b00001, 0b00010, 0b00100, 0b00101,
                 0b10011, 0b11000, 0b11001, 0b11110]
FIGURE3_LEFT = [3, 7, 9, 1, 11, 6, 12]
FIGURE3_RIGHT = [4, 8, 10, 2, 5, 14, 13]


class TestKarras:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_figure_3_of_karras(self, engine):
        with traversal_engine(engine):
            left, right, parent = karras_hierarchy(
                np.array(FIGURE3_CODES, dtype=np.uint64))
        assert left.tolist() == FIGURE3_LEFT
        assert right.tolist() == FIGURE3_RIGHT
        assert parent[0] == -1
        assert all(parent[child] == node
                   for node in range(7)
                   for child in (left[node], right[node]))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 255, 1000])
    def test_matches_scalar_reference(self, rng, n):
        codes = sorted_codes(rng.random((n, 3)))
        l1, r1, p1 = karras_hierarchy(codes)
        l2, r2, p2 = karras_hierarchy_scalar(codes)
        assert np.array_equal(l1, l2)
        assert np.array_equal(r1, r2)
        assert np.array_equal(p1, p2)

    def test_duplicate_codes(self, rng):
        codes = np.sort(np.repeat(
            morton_encode(rng.random((8, 2))), 16))
        l1, r1, p1 = karras_hierarchy(codes)
        l2, r2, p2 = karras_hierarchy_scalar(codes)
        assert np.array_equal(l1, l2)
        assert np.array_equal(r1, r2)

    def test_all_identical_codes(self):
        codes = np.zeros(33, dtype=np.uint64)
        left, right, parent = karras_hierarchy(codes)
        # Valid binary tree despite 100% duplicates.
        children = np.concatenate([left, right])
        assert np.unique(children).size == children.size
        assert parent[0] == -1

    def test_two_elements(self):
        codes = np.array([1, 2], dtype=np.uint64)
        left, right, parent = karras_hierarchy(codes)
        assert left[0] == 1  # leaf 0 (node id n-1+0 = 1)
        assert right[0] == 2  # leaf 1

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            karras_hierarchy(np.array([3, 1, 2], dtype=np.uint64))

    def test_rejects_single(self):
        with pytest.raises(InvalidInputError):
            karras_hierarchy(np.array([1], dtype=np.uint64))

    def test_counters_recorded(self, rng):
        codes = sorted_codes(rng.random((100, 2)))
        counters = CostCounters()
        karras_hierarchy(codes, counters)
        assert counters.scalar_ops > 0
        assert counters.kernel_launches == 1

    @given(finite_points(min_n=2, max_n=60))
    def test_property_valid_tree(self, pts):
        bvh = build_bvh(pts)
        check_bvh_invariants(bvh)


class TestSchedule:
    def test_bottom_up_order(self, rng):
        bvh = build_bvh(rng.random((100, 3)))
        seen = set()
        leaf_base = bvh.leaf_base
        for ids in bvh.schedule:
            for node in ids:
                for child in (bvh.left[node], bvh.right[node]):
                    if child < leaf_base:
                        assert child in seen, "child after parent"
                seen.add(node)
        assert len(seen) == bvh.n - 1

    def test_schedule_covers_all_internal(self, rng):
        bvh = build_bvh(rng.random((257, 2)))
        total = np.concatenate(bvh.schedule)
        assert np.array_equal(np.sort(total), np.arange(bvh.n - 1))


class TestRefit:
    def test_root_covers_everything(self, rng):
        pts = rng.random((300, 3))
        bvh = build_bvh(pts)
        assert np.allclose(bvh.lo[0], pts.min(axis=0))
        assert np.allclose(bvh.hi[0], pts.max(axis=0))

    def test_parent_contains_children(self, rng):
        bvh = build_bvh(rng.random((200, 2)))
        for node in range(bvh.n - 1):
            for child in (bvh.left[node], bvh.right[node]):
                assert np.all(bvh.lo[node] <= bvh.lo[child])
                assert np.all(bvh.hi[node] >= bvh.hi[child])

    def test_refit_after_moving_points(self, rng):
        pts = rng.random((50, 2))
        bvh = build_bvh(pts)
        moved = bvh.points + 1.0
        lo, hi = refit_bounds(moved, bvh.left, bvh.right, bvh.schedule)
        assert np.allclose(lo[0], moved.min(axis=0))

    def test_schedule_requires_two(self):
        with pytest.raises(InvalidInputError):
            bottom_up_schedule(np.empty(0, dtype=int),
                               np.empty(0, dtype=int), 1)


class TestBuildBVH:
    def test_single_point(self):
        bvh = build_bvh(np.array([[1.0, 2.0]]))
        assert bvh.n == 1
        assert bvh.n_nodes == 1
        check_bvh_invariants(bvh)

    def test_two_points(self):
        bvh = build_bvh(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert bvh.n_nodes == 3
        check_bvh_invariants(bvh)

    def test_order_is_permutation(self, rng):
        pts = rng.random((100, 3))
        bvh = build_bvh(pts)
        assert np.array_equal(np.sort(bvh.order), np.arange(100))
        assert np.array_equal(bvh.points, pts[bvh.order])

    def test_codes_sorted(self, rng):
        bvh = build_bvh(rng.random((128, 2)))
        codes = morton_encode(bvh.points)
        assert np.all(codes[:-1] <= codes[1:])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            build_bvh(np.array([[np.nan, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            build_bvh(np.empty((0, 3)))

    def test_low_bits_still_valid(self, rng):
        # GeoLife-style Z-curve under-resolution: tree stays structurally
        # valid even when codes collide massively.
        bvh = build_bvh(rng.random((200, 3)), bits=2)
        check_bvh_invariants(bvh)

    def test_duplicate_points(self, rng):
        pts = np.repeat(rng.random((4, 3)), 25, axis=0)
        bvh = build_bvh(pts)
        check_bvh_invariants(bvh)

    def test_collinear_points(self):
        pts = np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=1)
        bvh = build_bvh(pts)
        check_bvh_invariants(bvh)

    def test_counters(self, rng):
        counters = CostCounters()
        build_bvh(rng.random((100, 3)), counters=counters)
        assert counters.sort_elements == 100
        assert counters.scalar_ops > 0

    def test_height_reasonable(self, rng):
        bvh = build_bvh(rng.random((1024, 3)))
        assert bvh.height <= 64
        assert bvh.height >= 10  # at least log2(1024)
