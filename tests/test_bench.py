"""Tests for the benchmark harness (repro.bench)."""

import os

import pytest

from repro.bench.harness import (
    ALGORITHM_WORK_SCALE,
    run_arborx,
    run_arborx_mrd,
    run_bentley_friedman,
    run_memogfk,
    run_mlpack,
    simulated_rate,
    simulated_seconds,
)
from repro.bench.tables import render_table
from repro.bench.figures.common import (
    FIGURE_DATASETS,
    PAPER_SIZES,
    arborx_record,
    clear_record_cache,
    memogfk_record,
    scaled_size,
)
from repro.data import generate
from repro.kokkos.devices import A100, EPYC_7763_MT, EPYC_7763_SEQ


@pytest.fixture(scope="module")
def points():
    return generate("Hacc37M", 1500, seed=0)


@pytest.fixture(scope="module")
def arborx(points):
    return run_arborx(points, "Hacc37M")


class TestRunners:
    def test_arborx_record(self, arborx):
        assert arborx.algorithm == "ArborX"
        assert arborx.n == 1500
        assert arborx.features == 4500
        assert set(arborx.phase_counters) == {"tree", "mst"}
        assert arborx.total_weight > 0
        assert arborx.extra["iterations"] >= 1

    def test_arborx_mrd_record(self, points):
        record = run_arborx_mrd(points, "Hacc37M", 4)
        assert "core" in record.phase_counters
        assert record.extra["k_pts"] == 4.0

    def test_memogfk_record(self, points):
        record = run_memogfk(points, "Hacc37M")
        assert record.algorithm == "MemoGFK"
        assert {"tree", "wspd", "mst", "mark"} <= set(record.phase_counters)
        assert record.extra["n_pairs"] > 0

    def test_mlpack_record(self, points):
        record = run_mlpack(points[:400], "Hacc37M")
        assert record.algorithm == "MLPACK"
        assert record.total_counters.distance_evals > 0

    def test_bf78_record(self, points):
        record = run_bentley_friedman(points[:400], "Hacc37M")
        assert record.algorithm == "BF78"

    def test_all_same_weight(self, points):
        w = run_arborx(points, "x").total_weight
        assert run_memogfk(points, "x").total_weight == pytest.approx(w)
        assert run_mlpack(points[:400], "x").total_weight == pytest.approx(
            run_bentley_friedman(points[:400], "x").total_weight)


class TestSimulation:
    def test_device_ordering(self, arborx):
        t_seq = simulated_seconds(arborx, EPYC_7763_SEQ)
        t_mt = simulated_seconds(arborx, EPYC_7763_MT)
        t_gpu = simulated_seconds(arborx, A100)
        assert t_seq > t_mt > t_gpu > 0

    def test_phase_subset(self, arborx):
        total = simulated_seconds(arborx, A100)
        mst = simulated_seconds(arborx, A100, phases=["mst"])
        tree = simulated_seconds(arborx, A100, phases=["tree"])
        assert total == pytest.approx(mst + tree)

    def test_rate_uses_features(self, arborx):
        rate = simulated_rate(arborx, EPYC_7763_SEQ)
        t = simulated_seconds(arborx, EPYC_7763_SEQ)
        assert rate == pytest.approx(arborx.features / t / 1e6)

    def test_work_scale_applied(self, points):
        memogfk = run_memogfk(points, "x")
        base = simulated_seconds(memogfk, EPYC_7763_SEQ)
        old = ALGORITHM_WORK_SCALE["MemoGFK"]
        try:
            ALGORITHM_WORK_SCALE["MemoGFK"] = old * 2
            scaled = simulated_seconds(memogfk, EPYC_7763_SEQ)
            # ~2x, modulo the n log n sort term growing slightly faster.
            assert 1.9 * base < scaled < 2.3 * base
        finally:
            ALGORITHM_WORK_SCALE["MemoGFK"] = old

    def test_serial_sort_quirk_arborx_only(self, points):
        # The MT serial-sort penalty applies to ArborX, not MemoGFK.
        arborx = run_arborx(points, "x")
        memogfk = run_memogfk(points, "x")
        from dataclasses import replace
        parallel_mt = replace(EPYC_7763_MT, serial_sort=False)
        # ArborX: pricing with the quirk differs from pricing without.
        assert simulated_seconds(arborx, EPYC_7763_MT) > \
            simulated_seconds(arborx, parallel_mt)
        # MemoGFK: the quirk device is internally replaced -> identical.
        assert simulated_seconds(memogfk, EPYC_7763_MT) == \
            pytest.approx(simulated_seconds(memogfk, parallel_mt))


class TestFigureCommon:
    def test_scaled_sizes_ordered_like_paper(self):
        # Relative dataset sizes preserved by the single global divisor.
        assert scaled_size("RoadNetwork3D") < scaled_size("Hacc37M")
        assert scaled_size("Hacc37M") == 30_000  # calibration anchor
        assert scaled_size("Normal100M3") <= 82_000  # cap

    def test_all_figure_datasets_have_sizes(self):
        for name in FIGURE_DATASETS:
            assert name in PAPER_SIZES
            assert scaled_size(name) >= 64

    def test_record_cache(self):
        clear_record_cache()
        a = arborx_record("Uniform100M2", 500)
        b = arborx_record("Uniform100M2", 500)
        assert a is b
        c = memogfk_record("Uniform100M2", 300)
        assert c is memogfk_record("Uniform100M2", 300)
        assert c is not memogfk_record("Uniform100M2", 300, k_pts=2)
        clear_record_cache()
        assert arborx_record("Uniform100M2", 500) is not a


class TestTables:
    def test_render_basic(self):
        table = render_table(["a", "b"], [[1, 2.5], ["x", 0.001]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        table = render_table(["v"], [[123.456], [0.00012], [5.5]])
        assert "123" in table
        assert "0.00012" in table
        assert "5.50" in table

    def test_empty_rows(self):
        table = render_table(["x"], [])
        assert "x" in table

    def test_save_report(self, tmp_path, monkeypatch):
        import repro.bench.tables as tables
        monkeypatch.setattr(tables, "REPORTS_DIR", str(tmp_path))
        path = tables.save_report("test.txt", "hello")
        assert os.path.exists(path)
        assert open(path).read() == "hello\n"


class TestFigureDriversQuick:
    """Smoke the figure drivers in quick mode (full mode is benchmarks/)."""

    def test_fig1_quick(self):
        from repro.bench.figures import fig1
        rows, table = fig1.run(quick=True)
        assert len(rows) == 7
        assert "Figure 1" in table

    def test_fig7_quick(self):
        from repro.bench.figures import fig7
        rows, table = fig7.run(quick=True)
        assert all(r["ArborX_A100"] > 0 for r in rows)

    def test_fig9_quick(self):
        from repro.bench.figures import fig9
        rows, table = fig9.run(quick=True)
        ks = [r["k_pts"] for r in rows]
        assert ks == sorted(ks)

    def test_ablation_quick(self):
        from repro.bench.figures import ablation
        rows, table = ablation.run(quick=True)
        variants = {r["variant"] for r in rows}
        assert "skip=on,bounds=on" in variants
        assert "bentley-friedman-1978" in variants
