"""Tests for the dataset generators (repro.data)."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    dataset_dimension,
    generate,
    geolife,
    hacc,
    ngsim,
    normal,
    portotaxi,
    roadnetwork,
    sample_preserving,
    uniform,
    visualvar,
)
from repro.errors import DimensionError, InvalidInputError
from repro.geometry.morton import morton_encode


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_shape_and_finite(self, name):
        pts = generate(name, 500, seed=3)
        assert pts.shape == (500, dataset_dimension(name))
        assert np.all(np.isfinite(pts))

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_deterministic(self, name):
        assert np.array_equal(generate(name, 300, seed=1),
                              generate(name, 300, seed=1))

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_seed_changes_data(self, name):
        a = generate(name, 300, seed=1)
        b = generate(name, 300, seed=2)
        assert not np.array_equal(a, b)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            generate("NoSuchDataset", 10)
        with pytest.raises(InvalidInputError):
            dataset_dimension("NoSuchDataset")

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_tiny_sizes(self, name):
        for n in (1, 2, 7):
            assert generate(name, n, seed=0).shape[0] == n


class TestDistributionCharacter:
    def test_uniform_moments(self):
        pts = uniform(20_000, 2, seed=0)
        assert abs(pts.mean()) < 0.01
        assert np.all(pts >= -0.5) and np.all(pts <= 0.5)

    def test_normal_moments(self):
        pts = normal(20_000, 3, seed=0)
        assert abs(pts.mean()) < 0.03
        assert abs(pts.std() - 1.0) < 0.03

    def test_uniform_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            uniform(10, 4)

    def test_visualvar_density_contrast(self):
        # Varying-density clusters: strongly non-uniform NN distances.
        pts = visualvar(3000, 2, seed=1)
        from scipy.spatial import cKDTree
        d, _ = cKDTree(pts).query(pts, k=2)
        nn = d[:, 1]
        nn = nn[nn > 0]
        assert np.percentile(nn, 95) / max(np.percentile(nn, 5), 1e-300) > 15

    def test_hacc_is_clustered(self):
        # The MST edge-length spread separates clustered from uniform.
        from scipy.spatial import cKDTree
        h = hacc(3000, seed=1)
        u = np.random.default_rng(1).random((3000, 3))
        dh, _ = cKDTree(h).query(h, k=2)
        du, _ = cKDTree(u).query(u, k=2)
        assert np.median(dh[:, 1]) < 0.5 * np.median(du[:, 1])

    def test_geolife_morton_underresolved(self):
        # The reproduction of the paper's pathology: massive Z-code
        # collisions at full 21-bit resolution.
        pts = geolife(5000, seed=0)
        codes = morton_encode(pts)
        assert np.unique(codes).size < 0.5 * len(pts)

    def test_ngsim_is_elongated(self):
        pts = ngsim(5000, seed=0)
        cov = np.cov(pts.T)
        eigvals = np.sort(np.linalg.eigvalsh(cov))
        assert eigvals[-1] / eigvals[0] > 3.0

    def test_roadnetwork_near_1d_structure(self):
        # Road points live on curves: NN distances tiny vs extent.
        from scipy.spatial import cKDTree
        pts = roadnetwork(4000, seed=0)
        d, _ = cKDTree(pts).query(pts, k=2)
        extent = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        assert np.median(d[:, 1]) < 0.01 * extent

    def test_portotaxi_autocorrelated(self):
        pts = portotaxi(2000, seed=0)
        assert pts.shape == (2000, 2)
        assert np.all(np.isfinite(pts))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(InvalidInputError):
            uniform(0, 2)


class TestSampling:
    def test_subset(self, rng):
        pts = rng.random((100, 3))
        sub = sample_preserving(pts, 40, seed=5)
        assert sub.shape == (40, 3)
        # Every sampled row exists in the original.
        pts_set = {tuple(p) for p in pts}
        assert all(tuple(p) in pts_set for p in sub)

    def test_no_replacement(self, rng):
        pts = rng.random((50, 2))
        sub = sample_preserving(pts, 50, seed=1)
        assert np.unique(sub, axis=0).shape[0] == 50

    def test_deterministic(self, rng):
        pts = rng.random((100, 2))
        assert np.array_equal(sample_preserving(pts, 30, seed=2),
                              sample_preserving(pts, 30, seed=2))

    def test_rejects_oversample(self, rng):
        with pytest.raises(InvalidInputError):
            sample_preserving(rng.random((10, 2)), 11)

    def test_rejects_zero(self, rng):
        with pytest.raises(InvalidInputError):
            sample_preserving(rng.random((10, 2)), 0)
