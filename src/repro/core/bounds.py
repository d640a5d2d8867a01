"""``computeUpperBounds``: seed per-component cutoff radii (Optimization 2).

The distance between any pair of points in *different* components upper
bounds both components' shortest outgoing edges.  Good pairs should be
close; the paper exploits the Z-curve ordering already produced by the BVH
construction — *adjacent* positions on the curve are usually geometrically
close — and scans consecutive sorted pairs with differing labels (Section 3).
The ``compiled`` engine runs the scan in C (``steps.c``), the
``reference`` engine as one vectorized pass per offset.

Under the mutual-reachability metric the bound must be the m.r.d. of the
pair (``max`` of the Euclidean distance and both core distances), which is
still an upper bound for the same reason.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bvh import compiled
from repro.bvh.bvh import BVH
from repro.geometry.distance import gathered_points_sq
from repro.kokkos.counters import CostCounters


def compute_upper_bounds(
    bvh: BVH,
    labels_sorted: np.ndarray,
    *,
    enabled: bool = True,
    core_sq: Optional[np.ndarray] = None,
    window: int = 1,
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Squared upper bound on the shortest outgoing edge per component.

    Returns an array indexed by component label (labels are sorted
    positions, so size ``n``); entries of inactive labels stay ``inf``.
    With ``enabled=False`` (the Optimization-2 ablation) all entries are
    ``inf`` and traversals start unbounded.

    ``window`` scans Z-curve pairs up to that many positions apart
    (the paper's scheme is ``window=1``).  Every cross-component pair is a
    valid upper bound, so a wider window can only tighten bounds — each
    extra offset costs one vectorized pass and pays for itself by
    shrinking every traversal's initial search radius.

    Every active component receives a finite bound when there are >= 2
    components: any maximal run of equal labels on the Z-curve borders a
    different label on at least one side.
    """
    n = bvh.n
    labels_sorted = np.asarray(labels_sorted, dtype=np.int64)
    if labels_sorted.shape != (n,):
        raise ValueError(
            f"labels shape {labels_sorted.shape} does not match n={n}")
    if window < 1:
        raise ValueError(f"bound window must be >= 1, got {window}")
    bounds = np.full(n, np.inf)
    if not enabled or n < 2:
        return bounds
    if core_sq is not None:
        core_sq = np.asarray(core_sq, dtype=np.float64)

    if compiled.selected():
        pairs = compiled.upper_bounds_compiled(bvh.points, labels_sorted,
                                               core_sq, window, bounds)
    else:
        pairs = _scan_pairs(bvh.points, labels_sorted, core_sq, window,
                            bounds)
    if counters is not None:
        counters.record_bulk(n, ops_per_item=3.0 * window,
                             bytes_per_item=16.0 * window)
        counters.distance_evals += pairs
    return bounds


def _scan_pairs(points: np.ndarray, labels_sorted: np.ndarray,
                core_sq: Optional[np.ndarray], window: int,
                bounds: np.ndarray) -> int:
    """The reference engine's scan: one vectorized pass per offset."""
    n = labels_sorted.shape[0]
    cols = np.ascontiguousarray(points.T)
    pairs = 0
    for off in range(1, min(window, n - 1) + 1):
        la = labels_sorted[:-off]
        lb = labels_sorted[off:]
        straddling = np.nonzero(la != lb)[0]
        if straddling.size == 0:
            continue
        d = gathered_points_sq(cols, straddling, cols, straddling + off)
        if core_sq is not None:
            d = np.maximum(d, core_sq[straddling])
            d = np.maximum(d, core_sq[straddling + off])
        np.minimum.at(bounds, la[straddling], d)
        np.minimum.at(bounds, lb[straddling], d)
        pairs += straddling.size
    return pairs
