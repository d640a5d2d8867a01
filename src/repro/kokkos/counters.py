"""Device-independent work counters for instrumented kernels.

Every performance-relevant kernel in this repository reports the work it
performs into a :class:`CostCounters` instance.  The counters deliberately
measure *algorithmic* quantities (how many point-point distances were
evaluated, how many BVH nodes were popped, how many SIMT warp-steps a batched
traversal needed) rather than Python-level costs, so the same run can be
replayed under several :class:`~repro.kokkos.devices.DeviceSpec` cost models.

The split between ``lane_steps`` and ``warp_steps`` captures SIMT divergence:
``lane_steps`` is the sum over query lanes of the number of traversal
iterations each lane was active for (ideal work), while ``warp_steps`` groups
lanes into warps of :data:`WARP_SIZE` and charges every iteration in which
*any* lane of the warp is active (what a GPU actually executes).  Their ratio
is the divergence penalty the paper alludes to when discussing priority-queue
thread divergence in Section 4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable

import numpy as np

#: SIMT width used for divergence accounting (CUDA warp / half a CDNA wave).
WARP_SIZE = 32


@dataclass
class CostCounters:
    """Accumulated work of one or more kernels.

    All fields are additive; :meth:`add` merges two counter sets.  Fields:

    ``distance_evals``
        Point-point (squared) distance computations.
    ``box_distance_evals``
        Point-AABB lower-bound distance computations.
    ``nodes_visited``
        BVH/kd-tree nodes popped and examined during traversals.
    ``leaf_visits``
        Leaf nodes whose payload was examined.
    ``stack_ops``
        Pushes+pops on traversal stacks.
    ``lane_steps``
        Per-lane active traversal iterations (ideal SIMT work).
    ``warp_steps``
        Warp-granular traversal iterations (divergence-aware SIMT work).
    ``scalar_ops``
        Miscellaneous arithmetic attributed to bulk array passes.
    ``sort_elements``
        Elements passed through a sort (Morton sort, Kruskal edge sort, ...).
    ``bytes_moved``
        Estimated bytes of main-memory traffic.
    ``kernel_launches``
        Number of device kernels an equivalent GPU implementation launches.
    ``max_batch``
        Width of the widest data-parallel kernel (saturation modelling).
    """

    distance_evals: int = 0
    box_distance_evals: int = 0
    nodes_visited: int = 0
    leaf_visits: int = 0
    stack_ops: int = 0
    lane_steps: int = 0
    warp_steps: int = 0
    scalar_ops: int = 0
    sort_elements: int = 0
    bytes_moved: int = 0
    kernel_launches: int = 0
    max_batch: int = 0

    def add(self, other: "CostCounters") -> "CostCounters":
        """In-place accumulate ``other`` into ``self`` and return ``self``."""
        for f in fields(self):
            if f.name == "max_batch":
                self.max_batch = max(self.max_batch, other.max_batch)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def copy(self) -> "CostCounters":
        """An independent copy of this counter set."""
        out = CostCounters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name))
        return out

    def scaled(self, factor: float) -> "CostCounters":
        """A copy with all additive work multiplied by ``factor``.

        ``max_batch`` (a width, not an amount of work) and
        ``kernel_launches`` (a count of dispatches) are left unscaled.
        Used by the benchmark harness to apply per-algorithm calibration
        constants (see ``EXPERIMENTS.md``): different algorithms have
        different real-world cycles-per-counted-op, calibrated once on the
        reference workload and held fixed everywhere else.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        out = self.copy()
        for f in fields(self):
            if f.name in ("max_batch", "kernel_launches"):
                continue
            setattr(out, f.name, int(getattr(self, f.name) * factor))
        return out

    def as_dict(self) -> Dict[str, int]:
        """Counter values keyed by field name."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def summed(cls, dicts: Iterable[Dict[str, int]]) -> "CostCounters":
        """Accumulate several :meth:`as_dict` forms into one counter set.

        Job payloads carry per-phase counter dicts (``tree``/``core``/
        ``mst``); tracing attaches their total to the executed span, so
        a trace shows the whole job's work profile at a glance.  Unknown
        keys are ignored (forward compatibility with payloads produced
        by newer counter schemas).
        """
        known = {f.name for f in fields(cls)}
        total = cls()
        for data in dicts:
            total.add(cls(**{k: v for k, v in data.items() if k in known}))
        return total

    @property
    def divergence_factor(self) -> float:
        """``warp_steps * WARP_SIZE / lane_steps`` — 1.0 means no divergence.

        Returns 1.0 when no traversal work has been recorded.
        """
        if self.lane_steps == 0:
            return 1.0
        return (self.warp_steps * WARP_SIZE) / self.lane_steps

    def record_bulk(self, n_items: int, ops_per_item: float = 1.0,
                    bytes_per_item: float = 0.0) -> None:
        """Record one flat data-parallel pass over ``n_items`` items."""
        if n_items < 0:
            raise ValueError(f"negative item count: {n_items}")
        self.scalar_ops += int(n_items * ops_per_item)
        self.bytes_moved += int(n_items * bytes_per_item)
        self.kernel_launches += 1
        self.max_batch = max(self.max_batch, n_items)

    def record_sort(self, n_items: int, bytes_per_item: float = 8.0) -> None:
        """Record sorting ``n_items`` elements (cost model applies n log n)."""
        if n_items < 0:
            raise ValueError(f"negative item count: {n_items}")
        self.sort_elements += n_items
        self.bytes_moved += int(n_items * bytes_per_item)
        self.kernel_launches += 1
        self.max_batch = max(self.max_batch, n_items)


@dataclass
class WarpTrace:
    """Accumulates SIMT activity of a batched traversal kernel.

    The batched traversal loop calls :meth:`step` once per iteration with the
    boolean activity mask over lanes; lanes are grouped into consecutive
    warps of :data:`WARP_SIZE` (queries are Morton-presorted, matching the
    ArborX strategy of assigning geometrically close queries to neighbouring
    threads).  :meth:`flush` folds the totals into a :class:`CostCounters`.
    """

    lane_steps: int = 0
    warp_steps: int = 0
    _pad_cache: Dict[int, int] = field(default_factory=dict, repr=False)

    def step(self, active: np.ndarray) -> None:
        """Record one traversal iteration with per-lane ``active`` mask."""
        n = active.shape[0]
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            return
        self.lane_steps += n_active
        pad = self._pad_cache.get(n)
        if pad is None:
            pad = (WARP_SIZE - n % WARP_SIZE) % WARP_SIZE
            self._pad_cache[n] = pad
        if pad:
            padded = np.zeros(n + pad, dtype=bool)
            padded[:n] = active
        else:
            padded = active
        warps = padded.reshape(-1, WARP_SIZE)
        self.warp_steps += int(np.count_nonzero(warps.any(axis=1)))

    def flush(self, counters: CostCounters) -> None:
        """Add accumulated steps into ``counters`` and reset the trace."""
        counters.lane_steps += self.lane_steps
        counters.warp_steps += self.warp_steps
        self.lane_steps = 0
        self.warp_steps = 0
