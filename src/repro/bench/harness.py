"""Instrumented algorithm runs and device repricing.

A :class:`RunRecord` captures one algorithm execution: wall-clock and work
counters per phase.  ``simulated_seconds``/``simulated_rate`` price a record
on a :class:`~repro.kokkos.devices.DeviceSpec`; because counters are
device-independent, the same record yields every device column of a figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.baselines.bentley_friedman import bentley_friedman_emst
from repro.baselines.dualtree_boruvka import dual_tree_emst
from repro.baselines.memogfk import memogfk_emst
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.kokkos.counters import CostCounters
from repro.kokkos.costmodel import simulate_seconds
from repro.kokkos.devices import DeviceSpec
from repro.metrics import mfeatures_per_second
from repro.timing import stopwatch

#: Per-algorithm cycles-per-counted-op calibration (see EXPERIMENTS.md).
#: The counters measure *algorithmic* work (distance evaluations, node
#: visits, ...) but real implementations differ in constant factors —
#: MemoGFK's recursion-heavy WSPD/BCP does far more per counted op than the
#: flat batched traversal kernels.  Each factor is calibrated ONCE on the
#: Hacc reference workload against the paper's sequential Figure-1 rates
#: (ArborX is the 1.0 anchor), then held fixed for every dataset, size and
#: device, so all cross-dataset/scaling/device shape comes from measured
#: counters.  BF78 is not in the paper; it reuses the MLPACK factor as the
#: closest implementation style (recursive kd-tree traversals).
ALGORITHM_WORK_SCALE: Dict[str, float] = {
    "ArborX": 1.0,
    "MemoGFK": 2.881,
    "MLPACK": 5.084,
    "BF78": 5.084,
}

#: Algorithms whose multithreaded sort does not parallelize.  The paper
#: reports this limitation for the ArborX CPU backend specifically
#: (``Kokkos::BinSort`` replaced by a serial ``std::sort``, Section 4.2);
#: MemoGFK's parallel Kruskal has no such defect, so CPU-MT devices are
#: repriced with a parallel sort for every other algorithm.
SERIAL_SORT_ALGORITHMS = frozenset({"ArborX"})


@dataclass
class RunRecord:
    """One instrumented algorithm execution."""

    algorithm: str
    dataset: str
    n: int
    dim: int
    wall_seconds: float
    phase_wall: Dict[str, float] = field(default_factory=dict)
    phase_counters: Dict[str, CostCounters] = field(default_factory=dict)
    total_weight: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_counters(self) -> CostCounters:
        """All phases merged."""
        total = CostCounters()
        for c in self.phase_counters.values():
            total.add(c)
        return total

    @property
    def features(self) -> int:
        """``n * d`` (the paper's throughput denominator)."""
        return self.n * self.dim


def run_arborx(points: np.ndarray, dataset: str,
               config: SingleTreeConfig = SingleTreeConfig()) -> RunRecord:
    """Run the single-tree EMST (the paper's ArborX implementation)."""
    with stopwatch() as sw:
        result = emst(points, config=config)
    return RunRecord(
        algorithm="ArborX",
        dataset=dataset,
        n=points.shape[0],
        dim=points.shape[1],
        wall_seconds=sw.seconds,
        phase_wall=dict(result.phases),
        phase_counters=dict(result.counters),
        total_weight=result.total_weight,
        extra={"iterations": float(result.n_iterations)},
    )


def run_arborx_mrd(points: np.ndarray, dataset: str, k_pts: int,
                   config: SingleTreeConfig = SingleTreeConfig()) -> RunRecord:
    """Run the single-tree m.r.d. EMST (Section 4.5)."""
    with stopwatch() as sw:
        result = mutual_reachability_emst(points, k_pts, config=config)
    return RunRecord(
        algorithm="ArborX",
        dataset=dataset,
        n=points.shape[0],
        dim=points.shape[1],
        wall_seconds=sw.seconds,
        phase_wall=dict(result.phases),
        phase_counters=dict(result.counters),
        total_weight=result.total_weight,
        extra={"iterations": float(result.n_iterations),
               "k_pts": float(k_pts)},
    )


def run_memogfk(points: np.ndarray, dataset: str, *,
                k_pts: int = 1, lazy: bool = True) -> RunRecord:
    """Run the WSPD-based baseline (Wang et al. 2021, "MemoGFK")."""
    with stopwatch() as sw:
        result = memogfk_emst(points, k_pts=k_pts, lazy=lazy)
    return RunRecord(
        algorithm="MemoGFK",
        dataset=dataset,
        n=points.shape[0],
        dim=points.shape[1],
        wall_seconds=sw.seconds,
        phase_wall=dict(result.phases),
        phase_counters=dict(result.counters),
        total_weight=result.total_weight,
        extra={"n_pairs": float(result.n_pairs),
               "n_bcp": float(result.n_bcp_computed)},
    )


def run_mlpack(points: np.ndarray, dataset: str) -> RunRecord:
    """Run the dual-tree Borůvka baseline (March et al. 2010, "MLPACK")."""
    counters = CostCounters()
    with stopwatch() as sw:
        u, v, w = dual_tree_emst(points, counters=counters)
    return RunRecord(
        algorithm="MLPACK",
        dataset=dataset,
        n=points.shape[0],
        dim=points.shape[1],
        wall_seconds=sw.seconds,
        phase_wall={"total": sw.seconds},
        phase_counters={"total": counters},
        total_weight=float(np.sum(w)),
    )


def run_bentley_friedman(points: np.ndarray, dataset: str) -> RunRecord:
    """Run the 1978 Prim+kd-tree baseline."""
    counters = CostCounters()
    with stopwatch() as sw:
        u, v, w = bentley_friedman_emst(points, counters=counters)
    return RunRecord(
        algorithm="BF78",
        dataset=dataset,
        n=points.shape[0],
        dim=points.shape[1],
        wall_seconds=sw.seconds,
        phase_wall={"total": sw.seconds},
        phase_counters={"total": counters},
        total_weight=float(np.sum(w)),
    )


def simulated_seconds(record: RunRecord, device: DeviceSpec,
                      phases: Optional[list] = None) -> float:
    """Simulated execution time of a record on ``device``.

    ``phases`` restricts pricing to a subset (e.g. only ``mst``); by
    default all phases are summed.
    """
    scale = ALGORITHM_WORK_SCALE.get(record.algorithm, 1.0)
    if device.serial_sort and record.algorithm not in SERIAL_SORT_ALGORITHMS:
        device = replace(device, serial_sort=False)
    total = 0.0
    for name, counters in record.phase_counters.items():
        if phases is not None and name not in phases:
            continue
        total += simulate_seconds(counters.scaled(scale), device).seconds
    return total


def simulated_rate(record: RunRecord, device: DeviceSpec) -> float:
    """Simulated throughput in MFeatures/sec (the paper's metric)."""
    seconds = simulated_seconds(record, device)
    return mfeatures_per_second(record.n, record.dim, seconds)
