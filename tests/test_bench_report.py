"""``tools/bench_report.py --baseline`` over the committed trajectory."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_report.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows():
    return json.loads((ROOT / "BENCH_trajectory.json").read_text())


def _print_baseline(tmp_path, rows_or_text):
    path = tmp_path / "trajectory.json"
    path.write_text(rows_or_text if isinstance(rows_or_text, str)
                    else json.dumps(rows_or_text))
    tool = _tool()
    return tool.print_baseline(str(path), tool.BENCHMARK)


def test_committed_trajectory_prints_every_workload_and_metric():
    proc = subprocess.run([sys.executable, str(TOOL), "--baseline"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            assert (f"| {workload['name']} | {metric['name']} "
                    f"({metric['unit']}) |") in proc.stdout


@pytest.mark.parametrize("ratio, marked", [(1.2, False), (1.3, True)])
def test_delta_beyond_its_bound_is_marked(tmp_path, capsys, ratio, marked):
    rows = _rows()
    metric = rows[-1]["workloads"]["cold_emst"]["metrics"]["op_p50_ms"]
    metric["change"] = metric["parent"] * ratio  # bound 25%, lower better
    assert _print_baseline(tmp_path, rows) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("| cold_emst | op_p50_ms ")]
    assert f"{ratio - 1:+.1%}" in line
    assert ("worse than its bound" in line) == marked


def _drop_metric(row):
    del row["workloads"]["shared_points"]["metrics"]["ok_rate"]


def _wrong_unit(row):
    row["workloads"]["warm_hits"]["metrics"]["op_tail_ms"]["unit"] = "s"


def _text_value(row):
    row["workloads"]["cold_emst"]["metrics"]["setup_s"]["change"] = "0.4"


def _no_pairs(row):
    del row["workloads"]["cold_emst"]["pairs"]


def _no_workload(row):
    del row["workloads"]["warm_hits"]


def _no_parent(row):
    del row["parent"]


@pytest.mark.parametrize("breakage", [
    _drop_metric, _wrong_unit, _text_value, _no_pairs, _no_workload,
    _no_parent])
def test_malformed_last_row_fails(tmp_path, capsys, breakage):
    rows = _rows()
    breakage(rows[-1])
    assert _print_baseline(tmp_path, rows) == 1
    assert "malformed" in capsys.readouterr().err


def test_kernel_headline_is_printed_and_optional(tmp_path, capsys):
    rows = _rows()
    rows[-1]["kernels"] = {"n_points": 50000, "cases": {
        "2d": {"dataset": "Uniform100M2", "old_seconds": 3.0,
               "compiled_seconds": 0.5}}}
    assert _print_baseline(tmp_path, rows) == 0
    assert "| 2d | Uniform100M2 | 3 | 0.5 | 6.00x |" in \
        capsys.readouterr().out
    del rows[-1]["kernels"]  # rows before the headline was recorded
    assert _print_baseline(tmp_path, rows) == 0
    assert "bench_kernels" not in capsys.readouterr().out


@pytest.mark.parametrize("kernels", [
    {"n_points": 50000, "cases": {}},
    {"n_points": "50k", "cases": {"2d": {
        "dataset": "Uniform100M2", "old_seconds": 3.0,
        "compiled_seconds": 0.5}}},
    {"n_points": 50000, "cases": {"2d": {
        "dataset": "Uniform100M2", "old_seconds": "3.0",
        "compiled_seconds": 0.5}}},
    {"n_points": 50000, "cases": {"2d": {
        "dataset": "Uniform100M2", "old_seconds": 3.0}}},
    {"n_points": 50000, "cases": {"2d": {
        "dataset": "Uniform100M2", "old_seconds": 3.0,
        "compiled_seconds": 0.0}}},
    {"cases": {}},
    [],
])
def test_malformed_kernel_headline_fails(tmp_path, capsys, kernels):
    rows = _rows()
    rows[-1]["kernels"] = kernels
    assert _print_baseline(tmp_path, rows) == 1
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "{", "{}"])
def test_unreadable_trajectory_fails(tmp_path, capsys, text):
    assert _print_baseline(tmp_path, text) == 1
    assert "malformed" in capsys.readouterr().err
