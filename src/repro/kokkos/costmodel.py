"""Cost model converting work counters into simulated seconds per device.

The model is intentionally simple and fully documented so that every
simulated number in the benchmark output can be traced back to measured
algorithmic work:

``time = launches * overhead  +  traversal / (peak * sat)  +  sort  +  mem``

* *Traversal/compute work* is a weighted sum of the counters (weights in
  :data:`OP_WEIGHTS` approximate relative instruction counts of each
  operation in the real kernels).  On GPUs the traversal portion is
  multiplied by the measured warp-divergence factor — warps execute the
  union of their lanes' control flow.
* *Saturation* reduces effective throughput for batches too small to fill
  the device (:meth:`repro.kokkos.devices.DeviceSpec.saturation`).
* *Sorting* costs ``elements * log2(elements) / sort_rate``, charged at the
  serial rate when the device's sort does not parallelize (the paper's
  multithreaded ``std::sort`` limitation).
* *Memory traffic* is charged against device bandwidth; compute and memory
  are summed (a pessimistic no-overlap assumption that affects all devices
  equally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.kokkos.counters import CostCounters
from repro.kokkos.devices import DeviceSpec

#: Relative instruction-cost weights of the counted operations.
OP_WEIGHTS: Dict[str, float] = {
    "distance_evals": 8.0,
    "box_distance_evals": 12.0,
    "nodes_visited": 6.0,
    "leaf_visits": 3.0,
    "stack_ops": 2.0,
    "scalar_ops": 1.0,
}

#: Counters considered traversal work (subject to the divergence factor).
TRAVERSAL_FIELDS = (
    "distance_evals",
    "box_distance_evals",
    "nodes_visited",
    "leaf_visits",
    "stack_ops",
)


def weighted_ops(counters: CostCounters) -> float:
    """Total weighted operation count of ``counters`` (device-independent)."""
    return sum(OP_WEIGHTS[name] * getattr(counters, name) for name in OP_WEIGHTS)


def traversal_ops(counters: CostCounters) -> float:
    """The traversal-kernel portion of :func:`weighted_ops`."""
    return sum(OP_WEIGHTS[name] * getattr(counters, name) for name in TRAVERSAL_FIELDS)


@dataclass(frozen=True)
class CostBreakdown:
    """Simulated time of one counter set on one device, by component."""

    device: str
    compute_seconds: float
    sort_seconds: float
    memory_seconds: float
    launch_seconds: float

    @property
    def seconds(self) -> float:
        """Total simulated seconds."""
        return (self.compute_seconds + self.sort_seconds
                + self.memory_seconds + self.launch_seconds)


def simulate_seconds(counters: CostCounters, device: DeviceSpec) -> CostBreakdown:
    """Simulated execution time of the work in ``counters`` on ``device``."""
    total = weighted_ops(counters)
    trav = traversal_ops(counters)
    flat = total - trav

    if device.kind == "gpu":
        # Warps execute the union of their lanes' control flow.
        trav = trav * counters.divergence_factor

    sat = device.saturation(counters.max_batch)
    compute = (trav + flat) / (device.peak_ops_per_sec * sat)

    sort_seconds = 0.0
    if counters.sort_elements > 0:
        n = counters.sort_elements
        work = n * math.log2(max(n, 2))
        rate = device.serial_sort_rate if device.serial_sort else device.sort_rate
        if not device.serial_sort:
            rate = rate * sat
        sort_seconds = work / rate

    memory = counters.bytes_moved / device.mem_bandwidth
    launch = counters.kernel_launches * device.launch_overhead
    return CostBreakdown(
        device=device.name,
        compute_seconds=compute,
        sort_seconds=sort_seconds,
        memory_seconds=memory,
        launch_seconds=launch,
    )
