"""End-to-end tests of the single-tree EMST (repro.core.emst)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.naive import brute_force_emst, brute_force_mrd_emst
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.errors import InvalidInputError
from repro.mst.validate import is_spanning_tree
from tests.conftest import finite_points

ALL_CONFIGS = [
    SingleTreeConfig(subtree_skipping=s, component_bounds=b)
    for s, b in itertools.product((True, False), repeat=2)
]


def assert_matches_oracle(points, result):
    u, v, w = brute_force_emst(points)
    assert is_spanning_tree(len(points), result.edges[:, 0],
                            result.edges[:, 1])
    assert result.total_weight == pytest.approx(float(w.sum()))
    got = {tuple(e) for e in result.edges.tolist()}
    ref = {(int(a), int(b)) for a, b in zip(u, v)}
    assert got == ref


class TestCorrectness:
    @pytest.mark.parametrize("n,d,seed", [
        (2, 2, 0), (3, 3, 1), (10, 2, 2), (50, 3, 3), (200, 2, 4),
        (333, 3, 5),
    ])
    def test_matches_oracle(self, n, d, seed):
        points = np.random.default_rng(seed).random((n, d))
        assert_matches_oracle(points, emst(points))

    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: f"skip={c.subtree_skipping},"
                                           f"bounds={c.component_bounds}")
    def test_optimizations_do_not_change_result(self, rng, config):
        points = rng.random((150, 3))
        result = emst(points, config=config)
        assert_matches_oracle(points, result)

    def test_integer_grid_ties(self):
        pts = np.array(list(itertools.product(range(7), range(7))),
                       dtype=float)
        result = emst(pts)
        assert result.total_weight == pytest.approx(48.0)
        assert_matches_oracle(pts, result)

    def test_grid_3d_ties(self):
        pts = np.array(list(itertools.product(range(4), repeat=3)),
                       dtype=float)
        assert_matches_oracle(pts, emst(pts))

    def test_duplicate_points(self, rng):
        pts = np.repeat(rng.random((10, 2)), 5, axis=0)
        result = emst(pts)
        assert_matches_oracle(pts, result)
        # Duplicates contribute zero-weight edges.
        assert np.count_nonzero(result.weights == 0.0) >= 40 - 10

    def test_collinear(self):
        pts = np.stack([np.linspace(0, 1, 40), np.zeros(40)], axis=1)
        result = emst(pts)
        assert result.total_weight == pytest.approx(1.0)

    def test_two_points(self):
        result = emst(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert result.edges.tolist() == [[0, 1]]
        assert result.weights[0] == pytest.approx(5.0)

    def test_single_point(self):
        result = emst(np.array([[1.0, 2.0]]))
        assert result.edges.shape == (0, 2)
        assert result.total_weight == 0.0

    def test_skewed_clusters(self, clustered_3d):
        assert_matches_oracle(clustered_3d, emst(clustered_3d))

    def test_low_resolution_morton_still_correct(self, rng):
        # Degenerate Z-curve (GeoLife pathology) affects speed only.
        pts = rng.random((120, 3))
        result = emst(pts, config=SingleTreeConfig(bits=2))
        assert_matches_oracle(pts, result)

    def test_huge_coordinates(self, rng):
        pts = rng.random((60, 2)) * 1e12
        result = emst(pts)
        assert is_spanning_tree(60, result.edges[:, 0], result.edges[:, 1])

    def test_tiny_coordinates(self, rng):
        pts = rng.random((60, 2)) * 1e-12
        assert_matches_oracle(pts, emst(pts))

    @given(finite_points(min_n=2, max_n=60))
    @settings(max_examples=20)
    def test_property_matches_oracle(self, pts):
        assert_matches_oracle(pts, emst(pts))


class TestResultMetadata:
    def test_edges_canonical_order(self, uniform_2d):
        result = emst(uniform_2d)
        assert np.all(result.edges[:, 0] < result.edges[:, 1])
        assert np.all(np.diff(result.weights) >= 0)

    def test_iteration_count_logarithmic(self, rng):
        pts = rng.random((1000, 2))
        result = emst(pts)
        assert 1 <= result.n_iterations <= np.ceil(np.log2(1000)) + 2

    def test_phases_present(self, uniform_3d):
        result = emst(uniform_3d)
        assert set(result.phases) == {"tree", "mst"}
        assert set(result.counters) == {"tree", "mst"}

    def test_round_stats(self, uniform_3d):
        result = emst(uniform_3d)
        assert len(result.rounds) == result.n_iterations
        comps = [r.components_before for r in result.rounds]
        assert comps[0] == len(uniform_3d)
        assert all(r.components_after < r.components_before
                   for r in result.rounds)
        assert result.rounds[-1].components_after == 1

    def test_counters_work_recorded(self, uniform_3d):
        result = emst(uniform_3d)
        total = result.total_counters
        assert total.distance_evals > 0
        assert total.sort_elements >= len(uniform_3d)
        assert total.divergence_factor >= 1.0

    def test_deterministic(self, rng):
        pts = rng.random((300, 3))
        r1 = emst(pts)
        r2 = emst(pts)
        assert np.array_equal(r1.edges, r2.edges)
        assert np.array_equal(r1.weights, r2.weights)

    def test_permutation_invariant_weight(self, rng):
        pts = rng.random((200, 2))
        perm = rng.permutation(200)
        r1 = emst(pts)
        r2 = emst(pts[perm])
        assert r1.total_weight == pytest.approx(r2.total_weight)


class TestValidation:
    def test_rejects_1d(self):
        with pytest.raises(InvalidInputError):
            emst(np.zeros(5))

    def test_rejects_4d(self, rng):
        with pytest.raises(InvalidInputError):
            emst(rng.random((10, 4)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            emst(np.array([[0.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            emst(np.array([[0.0, np.inf], [1.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            emst(np.empty((0, 2)))


class TestMutualReachability:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_matches_oracle(self, rng, k):
        pts = rng.random((80, 2))
        result = mutual_reachability_emst(pts, k)
        u, v, w = brute_force_mrd_emst(pts, k)
        assert result.total_weight == pytest.approx(float(w.sum()))
        assert is_spanning_tree(80, result.edges[:, 0], result.edges[:, 1])

    def test_k1_equals_euclidean(self, rng):
        pts = rng.random((100, 3))
        assert mutual_reachability_emst(pts, 1).total_weight == \
            pytest.approx(emst(pts).total_weight)

    def test_weight_nondecreasing_in_k(self, rng):
        pts = rng.random((120, 2))
        weights = [mutual_reachability_emst(pts, k).total_weight
                   for k in (1, 2, 4, 8)]
        assert all(b >= a - 1e-9 for a, b in zip(weights, weights[1:]))

    def test_core_phase_present(self, rng):
        result = mutual_reachability_emst(rng.random((50, 2)), 3)
        assert set(result.phases) == {"tree", "core", "mst"}
        assert result.counters["core"].distance_evals > 0

    def test_rejects_bad_k(self, rng):
        pts = rng.random((10, 2))
        with pytest.raises(InvalidInputError):
            mutual_reachability_emst(pts, 0)
        with pytest.raises(InvalidInputError):
            mutual_reachability_emst(pts, 11)

    def test_mrd_weights_at_least_euclidean(self, rng):
        pts = rng.random((60, 3))
        assert mutual_reachability_emst(pts, 5).total_weight >= \
            emst(pts).total_weight - 1e-9

    @given(finite_points(min_n=4, max_n=40))
    @settings(max_examples=15)
    def test_property_mrd_matches_oracle(self, pts):
        k = min(3, len(pts))
        result = mutual_reachability_emst(pts, k)
        _, _, w = brute_force_mrd_emst(pts, k)
        assert result.total_weight == pytest.approx(float(w.sum()))
