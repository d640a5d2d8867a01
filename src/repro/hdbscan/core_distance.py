"""Core distances: distance to the k-th nearest neighbor (self included).

This is the paper's ``T_core`` phase (Section 4.5): a bulk k-NN over the
same BVH the EMST uses.  The paper observes that on GPUs this kernel's cost
grows faster with ``k_pts`` than on CPUs because maintaining a per-thread
priority queue diverges — our batched k-NN reproduces that through the
measured warp-step counters (the k-list insertion path lengthens and
desynchronizes lanes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bvh.bvh import BVH, build_bvh
from repro.bvh.traversal import batched_knn
from repro.errors import InvalidInputError
from repro.kokkos.counters import CostCounters


def core_distances_sq(points: np.ndarray, k_pts: int, *,
                      bvh: Optional[BVH] = None,
                      counters: Optional[CostCounters] = None
                      ) -> np.ndarray:
    """*Squared* core distance of every point, in the caller's point order.

    This is the cacheable form of ``T_core``: the values depend only on
    ``(points, k_pts)`` — not on the spatial index used to find them — and
    the caller-order layout keeps the artifact valid across different tree
    configurations.  The serving engine's core-distance tier persists
    exactly this array and injects it back through the ``core_sq=``
    parameter of :func:`repro.core.emst.mutual_reachability_emst`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got {points.shape}")
    n = points.shape[0]
    if not 1 <= k_pts <= n:
        raise InvalidInputError(f"k_pts={k_pts} out of range for n={n}")
    if bvh is None:
        bvh = build_bvh(points, counters=counters)
    result = batched_knn(bvh, bvh.points, k_pts, counters=counters)
    out = np.empty(n, dtype=np.float64)
    out[bvh.order] = result.kth_distance_sq
    return out


def core_distances(points: np.ndarray, k_pts: int, *,
                   bvh: Optional[BVH] = None,
                   counters: Optional[CostCounters] = None) -> np.ndarray:
    """Core distance of every point (in the caller's point order).

    ``k_pts = 1`` gives all zeros (the distance of a point to itself),
    making the mutual-reachability distance collapse to Euclidean — the
    identity the paper uses to sanity-check the integration.
    """
    return np.sqrt(core_distances_sq(points, k_pts, bvh=bvh,
                                     counters=counters))
