"""Work counters and simulated devices standing in for Kokkos.

The paper implements its EMST on top of `Kokkos <https://github.com/kokkos/kokkos>`_
and runs the same source on an AMD EPYC 7763 CPU, an Nvidia A100 GPU, and an
AMD MI250X GPU.  This repository has no GPU, so the portability layer is
reproduced as follows:

* Kernels are executed as **data-parallel batched NumPy operations**; every
  kernel reports the work it performed (distance evaluations, tree-node
  visits, SIMT warp steps including divergence, bytes moved, elements
  sorted) into a :class:`~repro.kokkos.counters.CostCounters` object.  The
  counters are *device-independent measurements of algorithmic work* — the
  same quantities the real kernels would issue on any backend.
* A :class:`~repro.kokkos.devices.DeviceSpec` (presets for EPYC 7763
  sequential/multithreaded, A100, and an MI250X GCD) converts counters into
  simulated seconds via :func:`~repro.kokkos.costmodel.simulate_seconds`.
  Device constants are calibrated against the paper's published rates; see
  ``EXPERIMENTS.md``.
"""

from repro.kokkos.counters import CostCounters, WarpTrace
from repro.kokkos.devices import (
    A100,
    EPYC_7763_MT,
    EPYC_7763_SEQ,
    MI250X_GCD,
    DeviceSpec,
    device_registry,
)
from repro.kokkos.costmodel import CostBreakdown, simulate_seconds

__all__ = [
    "CostCounters",
    "WarpTrace",
    "DeviceSpec",
    "EPYC_7763_SEQ",
    "EPYC_7763_MT",
    "A100",
    "MI250X_GCD",
    "device_registry",
    "CostBreakdown",
    "simulate_seconds",
]
