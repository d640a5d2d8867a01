"""Tests for the work counters and device cost models (repro.kokkos)."""

import numpy as np
import pytest

from repro.kokkos import (
    A100,
    EPYC_7763_MT,
    EPYC_7763_SEQ,
    MI250X_GCD,
    CostCounters,
    DeviceSpec,
    WarpTrace,
    device_registry,
    simulate_seconds,
)
from repro.kokkos.costmodel import traversal_ops, weighted_ops
from repro.kokkos.counters import WARP_SIZE


class TestCounters:
    def test_add(self):
        a = CostCounters(distance_evals=5, max_batch=10)
        b = CostCounters(distance_evals=3, max_batch=20)
        a.add(b)
        assert a.distance_evals == 8
        assert a.max_batch == 20  # max, not sum

    def test_copy_independent(self):
        a = CostCounters(nodes_visited=1)
        b = a.copy()
        b.nodes_visited = 99
        assert a.nodes_visited == 1

    def test_scaled(self):
        a = CostCounters(distance_evals=100, kernel_launches=5,
                         max_batch=1000)
        s = a.scaled(2.0)
        assert s.distance_evals == 200
        assert s.kernel_launches == 5  # dispatch count, never scaled
        assert s.max_batch == 1000

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostCounters().scaled(0.0)

    def test_record_bulk(self):
        c = CostCounters()
        c.record_bulk(100, ops_per_item=2.0, bytes_per_item=8.0)
        assert c.scalar_ops == 200
        assert c.bytes_moved == 800
        assert c.kernel_launches == 1
        assert c.max_batch == 100

    def test_record_sort(self):
        c = CostCounters()
        c.record_sort(1000)
        assert c.sort_elements == 1000

    def test_divergence_default(self):
        assert CostCounters().divergence_factor == 1.0


class TestWarpTrace:
    def test_full_warp_no_divergence(self):
        trace = WarpTrace()
        trace.step(np.ones(WARP_SIZE, dtype=bool))
        c = CostCounters()
        trace.flush(c)
        assert c.lane_steps == WARP_SIZE
        assert c.warp_steps == 1
        assert c.divergence_factor == 1.0

    def test_single_lane_full_divergence(self):
        trace = WarpTrace()
        mask = np.zeros(WARP_SIZE, dtype=bool)
        mask[0] = True
        trace.step(mask)
        c = CostCounters()
        trace.flush(c)
        assert c.divergence_factor == WARP_SIZE

    def test_partial_batch_padding(self):
        trace = WarpTrace()
        trace.step(np.ones(40, dtype=bool))  # 1 full + 1 partial warp
        c = CostCounters()
        trace.flush(c)
        assert c.lane_steps == 40
        assert c.warp_steps == 2

    def test_inactive_step_free(self):
        trace = WarpTrace()
        trace.step(np.zeros(64, dtype=bool))
        c = CostCounters()
        trace.flush(c)
        assert c.warp_steps == 0

    def test_flush_resets(self):
        trace = WarpTrace()
        trace.step(np.ones(32, dtype=bool))
        trace.flush(CostCounters())
        c = CostCounters()
        trace.flush(c)
        assert c.lane_steps == 0


class TestDevices:
    def test_presets_registered(self):
        reg = device_registry()
        assert set(reg) == {"epyc-seq", "epyc-mt", "a100", "mi250x"}

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", "tpu", 1, 1.0, 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", "cpu", 1, 0.0, 1.0)

    def test_saturation_monotone(self):
        sat = [A100.saturation(b) for b in (10, 1e3, 1e5, 1e7)]
        assert all(b > a for a, b in zip(sat, sat[1:]))
        assert sat[-1] <= 1.0

    def test_saturation_disabled(self):
        assert EPYC_7763_SEQ.saturation(1) == 1.0


class TestCostModel:
    def _work(self):
        c = CostCounters(distance_evals=10_000, box_distance_evals=30_000,
                         nodes_visited=10_000, stack_ops=20_000,
                         lane_steps=10_000, warp_steps=500,
                         scalar_ops=50_000, sort_elements=10_000,
                         bytes_moved=10_000_000, kernel_launches=20,
                         max_batch=100_000)
        return c

    def test_weighted_ops_positive(self):
        assert weighted_ops(self._work()) > 0
        assert traversal_ops(self._work()) < weighted_ops(self._work())

    def test_faster_devices_faster(self):
        c = self._work()
        t_seq = simulate_seconds(c, EPYC_7763_SEQ).seconds
        t_mt = simulate_seconds(c, EPYC_7763_MT).seconds
        t_gpu = simulate_seconds(c, A100).seconds
        assert t_seq > t_mt > t_gpu

    def test_mi250x_slower_than_a100(self):
        c = self._work()
        assert simulate_seconds(c, MI250X_GCD).seconds > \
            simulate_seconds(c, A100).seconds

    def test_divergence_penalizes_gpu_only(self):
        base = self._work()
        diverged = base.copy()
        diverged.warp_steps = base.lane_steps  # divergence factor 32
        assert simulate_seconds(diverged, A100).seconds > \
            simulate_seconds(base, A100).seconds
        assert simulate_seconds(diverged, EPYC_7763_SEQ).seconds == \
            simulate_seconds(base, EPYC_7763_SEQ).seconds

    def test_work_monotone(self):
        small = self._work()
        big = small.copy()
        big.distance_evals *= 10
        for device in (EPYC_7763_SEQ, A100):
            assert simulate_seconds(big, device).seconds > \
                simulate_seconds(small, device).seconds

    def test_small_batch_hurts_gpu(self):
        c = self._work()
        tiny = c.copy()
        tiny.max_batch = 100
        assert simulate_seconds(tiny, A100).seconds > \
            simulate_seconds(c, A100).seconds

    def test_breakdown_sums(self):
        b = simulate_seconds(self._work(), A100)
        assert b.seconds == pytest.approx(
            b.compute_seconds + b.sort_seconds + b.memory_seconds
            + b.launch_seconds)

    def test_serial_sort_slower(self):
        c = CostCounters(sort_elements=1_000_000, max_batch=1_000_000)
        mt = simulate_seconds(c, EPYC_7763_MT).sort_seconds
        from dataclasses import replace
        parallel = replace(EPYC_7763_MT, serial_sort=False)
        assert simulate_seconds(c, parallel).sort_seconds < mt
