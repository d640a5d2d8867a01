"""Tests for the rate metric (repro.metrics)."""

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    features,
    features_per_second,
    fleet_hit_rate,
    fleet_mfeatures_per_second,
    hit_rate,
    jobs_per_second,
    mfeatures_per_second,
    speedup,
)


class TestFleetAggregates:
    def test_fleet_hit_rate_pools_lookups(self):
        # Pooled, not averaged: the busy node dominates.
        assert fleet_hit_rate([(9, 1), (0, 0)]) == 0.9
        assert fleet_hit_rate([(1, 1), (1, 1), (2, 0)]) == \
            pytest.approx(4 / 6)

    def test_fleet_hit_rate_idle_fleet(self):
        assert fleet_hit_rate([]) == 0.0
        assert fleet_hit_rate([(0, 0), (0, 0)]) == 0.0

    def test_fleet_hit_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            fleet_hit_rate([(1, 2), (-1, 0)])

    def test_fleet_throughput_pools_busy_time(self):
        assert fleet_mfeatures_per_second(
            [2_000_000, 1_000_000], [2.0, 1.0]) == 1.0

    def test_fleet_throughput_idle_fleet(self):
        assert fleet_mfeatures_per_second([], []) == 0.0
        assert fleet_mfeatures_per_second([0, 0], [0.0, 0.0]) == 0.0

    def test_fleet_throughput_rejects_negative(self):
        with pytest.raises(ValueError):
            fleet_mfeatures_per_second([-1], [1.0])
        with pytest.raises(ValueError):
            fleet_mfeatures_per_second([1], [-1.0])


class TestServiceRates:
    def test_hit_rate(self):
        assert hit_rate(3, 1) == 0.75
        assert hit_rate(0, 5) == 0.0
        assert hit_rate(5, 0) == 1.0

    def test_hit_rate_untouched_cache(self):
        assert hit_rate(0, 0) == 0.0

    def test_hit_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            hit_rate(-1, 2)

    def test_jobs_per_second(self):
        assert jobs_per_second(10, 2.0) == 5.0
        assert jobs_per_second(0, 1.0) == 0.0

    def test_jobs_per_second_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            jobs_per_second(-1, 1.0)
        with pytest.raises(ValueError):
            jobs_per_second(1, 0.0)


class TestFeatures:
    def test_product(self):
        assert features(1000, 3) == 3000

    def test_zero_points(self):
        assert features(0, 2) == 0

    def test_negative_points_rejected(self):
        with pytest.raises(ValueError):
            features(-1, 2)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            features(10, 0)


class TestRates:
    def test_features_per_second(self):
        assert features_per_second(100, 2, 2.0) == 100.0

    def test_mfeatures_matches_paper_definition(self):
        # 37M 3D points in 0.41s ~ 270 MFeatures/sec (the abstract's claim).
        rate = mfeatures_per_second(37_000_000, 3, 0.41)
        assert 250 < rate < 290

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            mfeatures_per_second(10, 2, 0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            features_per_second(10, 2, -1.0)


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_slowdown_below_one(self):
        assert speedup(1.0, 2.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestHistogram:
    def test_observe_buckets_and_totals(self):
        h = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            h.observe(value)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(7.0)
        assert h.mean == pytest.approx(7.0 / 3)

    def test_default_bucket_scheme(self):
        h = Histogram()
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        assert len(h.counts) == len(DEFAULT_LATENCY_BUCKETS) + 1

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(2.0)
        # Overflow observations clamp to the largest finite bound.
        h.observe(100.0)
        assert h.quantile(1.0) == 4.0

    def test_quantile_of_empty_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)
        with pytest.raises(ValueError):
            Histogram().quantile(-0.1)

    def test_dict_round_trip(self):
        h = Histogram(bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        clone = Histogram.from_dict(h.as_dict())
        assert clone.bounds == h.bounds
        assert clone.counts == h.counts
        assert clone.sum == h.sum
        assert clone.count == h.count

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
