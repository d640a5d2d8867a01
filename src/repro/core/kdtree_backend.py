"""kd-tree backend for the single-tree EMST.

The paper notes its algorithms "are general and are applicable to other
tree structures such as k-d tree" (Section 1).  This module makes that
claim executable: a median-split kd-tree is built directly in the BVH
node layout (``n`` one-point leaves, internal nodes ``0..n-2``, the leaf
of position ``j`` at ``n-1+j``), so the *entire* Borůvka machinery —
label reduction, bound seeding, batched Algorithm-2 traversal, merge —
runs on it unchanged.

The leaf order is the kd-tree's left-to-right (in-order) sequence, which
is itself a space-filling order; the Z-curve-adjacency bound seeding of
Optimization 2 therefore still finds close cross-component pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bvh.bvh import BVH, check_order
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.errors import InvalidInputError
from repro.kokkos.counters import CostCounters


def _layout(n: int):
    """Children of the median-split tree over ``n`` points, and the
    ``(start, end)`` position range each internal node splits, parents
    before children.  Depends on ``n`` only."""
    leaf_base = n - 1
    left = np.empty(n - 1, dtype=np.int64)
    right = np.empty(n - 1, dtype=np.int64)
    segments = []
    # Internal ids are assigned in discovery order (root = 0); a segment
    # of one point is the leaf of its position, node ``leaf_base + s``.
    n_internal = 1
    # Stack entries: (node_id, start, end) with end - start > 1.
    stack = [(0, 0, n)]
    while stack:
        node, s, e = stack.pop()
        segments.append((s, e))
        mid = s + (e - s) // 2
        for children, (cs, ce) in ((left, (s, mid)), (right, (mid, e))):
            if ce - cs == 1:
                children[node] = leaf_base + cs
            else:
                children[node] = n_internal
                stack.append((n_internal, cs, ce))
                n_internal += 1
    return left, right, segments


def kdtree_as_bvh(points: np.ndarray, *,
                  counters: Optional[CostCounters] = None,
                  order: Optional[np.ndarray] = None) -> BVH:
    """Median-split kd-tree over ``points`` in the BVH node layout.

    Splits the widest box side at the point median down to single points.
    Returns a :class:`~repro.bvh.bvh.BVH`, so every consumer of the LBVH
    (traversals, the Borůvka loop) works on it without change.  ``order``
    is the ``order`` of an earlier build over the same points: the split
    search is skipped, as the node layout depends only on ``n``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")
    n, dim = points.shape
    if order is not None:
        order = check_order(order, n)

    if n == 1:
        # Single-leaf tree: node 0 is the leaf and the root.
        return BVH(
            points=points.copy(),
            order=np.arange(n, dtype=np.int64),
            left=np.empty(0, dtype=np.int64),
            right=np.empty(0, dtype=np.int64),
            parent=np.array([-1], dtype=np.int64),
            lo=points.min(axis=0, keepdims=True),
            hi=points.max(axis=0, keepdims=True),
            schedule=[],
        )

    left, right, segments = _layout(n)
    if order is None:
        order = np.arange(n, dtype=np.int64)
        for s, e in segments:
            seg = order[s:e]
            seg_pts = points[seg]
            widths = seg_pts.max(axis=0) - seg_pts.min(axis=0)
            axis = int(np.argmax(widths))
            part = np.argpartition(seg_pts[:, axis], (e - s) // 2)
            order[s:e] = seg[part]

    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    internal_ids = np.arange(n - 1, dtype=np.int64)
    parent[left] = internal_ids
    parent[right] = internal_ids

    sorted_points = points[order]
    schedule = bottom_up_schedule(left, right, n)
    lo, hi = refit_bounds(sorted_points, left, right, schedule, counters)
    if counters is not None:
        depth = max(int(np.ceil(np.log2(n))), 1)
        counters.record_bulk(n, ops_per_item=6.0 * depth,
                             bytes_per_item=16.0)
        counters.record_sort(n, bytes_per_item=16.0)
    return BVH(
        points=sorted_points,
        order=order,
        left=left,
        right=right,
        parent=parent,
        lo=lo,
        hi=hi,
        schedule=schedule,
    )
