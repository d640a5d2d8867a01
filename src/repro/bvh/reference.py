"""Reference single-pop traversal kernels (Algorithm 2, one node per step).

This is the NumPy realization of ArborX's bulk search: every query owns a
traversal stack and all lanes advance together, popping exactly one node
and examining its two children per Python iteration.  It is the
*semantic reference* for the compiled kernels of
:mod:`repro.bvh.compiled` — the property tests drive both engines over
the same adversarial inputs and assert identical answers and counters —
and the engine a host without a C compiler runs.

Each leaf holds one point, so a leaf carries its point's component label
in ``node_labels`` and a leaf of the query's own component is skipped at
the node level, like any rejected child; singleton labels keep a query
from finding itself.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.bvh.bvh import BVH
from repro.bvh.query import (
    _NO_KEY,
    KnnResult,
    NearestResult,
    merge_k_best,
    pair_keys,
    update_nearest_best,
    validate_query_points,
)
from repro.errors import InvalidInputError
from repro.geometry.distance import point_box_sq, points_sq
from repro.kokkos.counters import CostCounters, WarpTrace


def _alloc_stack(bvh: BVH, batch: int) -> Tuple[np.ndarray, np.ndarray]:
    depth = max(bvh.height + 2, 4)
    stack = np.zeros((batch, depth), dtype=np.int32)
    sp = np.zeros(batch, dtype=np.int64)
    return stack, sp


def nearest_reference(
    bvh: BVH,
    query_points: np.ndarray,
    *,
    query_labels: Optional[np.ndarray] = None,
    node_labels: Optional[np.ndarray] = None,
    init_radius_sq: Optional[np.ndarray] = None,
    query_ids: Optional[np.ndarray] = None,
    point_ids: Optional[np.ndarray] = None,
    query_core_sq: Optional[np.ndarray] = None,
    point_core_sq: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
) -> NearestResult:
    """Constrained nearest neighbor, one popped node per lane per step."""
    query_points = validate_query_points(bvh, query_points)
    B = query_points.shape[0]
    leaf_base = bvh.leaf_base

    best_sq = np.full(B, np.inf)
    best_pos = np.full(B, -1, dtype=np.int64)
    best_key = np.full(B, _NO_KEY, dtype=np.uint64)
    radius = (np.full(B, np.inf) if init_radius_sq is None
              else np.asarray(init_radius_sq, dtype=np.float64).copy())
    if radius.shape != (B,):
        raise InvalidInputError("init_radius_sq must have one entry per query")

    use_labels = query_labels is not None
    if use_labels and node_labels is None:
        raise InvalidInputError("query_labels requires node_labels")
    use_mrd = query_core_sq is not None
    if use_mrd and point_core_sq is None:
        raise InvalidInputError("query_core_sq requires point_core_sq")
    use_keys = query_ids is not None
    if use_keys and point_ids is None:
        raise InvalidInputError("query_ids requires point_ids")

    trace = WarpTrace()
    local = counters if counters is not None else CostCounters()
    local.kernel_launches += 1
    local.max_batch = max(local.max_batch, B)

    def eval_leaves(lane: np.ndarray, leaf_nodes: np.ndarray) -> None:
        """Exact evaluation of the leaves ``leaf_nodes`` for lanes ``lane``."""
        local.leaf_visits += lane.size
        ppos = leaf_nodes - leaf_base
        d = points_sq(query_points[lane], bvh.points[ppos])
        if use_mrd:
            d = np.maximum(d, query_core_sq[lane])
            d = np.maximum(d, point_core_sq[ppos])
        local.distance_evals += lane.size
        # Admission: only candidates inside the current cutoff may win.
        # The node test bounded the box distance only: under the m.r.d.
        # metric the point's own core distance can lift d above it.
        adm = d <= radius[lane]
        if not np.all(adm):
            lane = lane[adm]
            ppos = ppos[adm]
            d = d[adm]
        if lane.size == 0:
            return
        key = pair_keys(query_ids[lane], point_ids[ppos]) if use_keys else None
        update_nearest_best(best_sq, best_pos, best_key, radius,
                            lane, ppos, d, key, bvh.n)

    if bvh.n == 1:
        # Single-leaf tree: evaluate the lone point directly.
        ok = np.ones(B, dtype=bool)
        if use_labels:
            ok &= node_labels[0] != query_labels
        sub = np.nonzero(ok)[0]
        if sub.size:
            eval_leaves(sub, np.zeros(sub.size, dtype=np.int64))
        return NearestResult(best_pos, best_sq, best_key)

    stack, sp = _alloc_stack(bvh, B)
    stack[:, 0] = 0  # root
    sp[:] = 1
    if use_labels:
        # Lanes whose component spans the whole tree have nothing to find.
        sp[node_labels[0] == query_labels] = 0

    left, right = bvh.left, bvh.right
    lo, hi = bvh.lo, bvh.hi

    while True:
        active_mask = sp > 0
        lanes = np.nonzero(active_mask)[0]
        if lanes.size == 0:
            break
        trace.step(active_mask)

        sp[lanes] -= 1
        node = stack[lanes, sp[lanes]].astype(np.int64)
        qp = query_points[lanes]
        rad = radius[lanes]

        # Re-test the popped node: the radius may have shrunk since the
        # push (Algorithm 2, line 9).
        d_node = point_box_sq(qp, lo[node], hi[node])
        local.nodes_visited += lanes.size
        local.box_distance_evals += lanes.size
        local.stack_ops += lanes.size
        keep = d_node <= rad
        if not np.any(keep):
            continue
        lanes = lanes[keep]
        node = node[keep]
        qp = qp[keep]
        rad = rad[keep]

        l_child = left[node]
        r_child = right[node]
        dl = point_box_sq(qp, lo[l_child], hi[l_child])
        dr = point_box_sq(qp, lo[r_child], hi[r_child])
        local.box_distance_evals += 2 * lanes.size
        if use_mrd:
            # mrd(u, v) >= core(u): tighten the subtree lower bound.
            qc = query_core_sq[lanes]
            dl_bound = np.maximum(dl, qc)
            dr_bound = np.maximum(dr, qc)
        else:
            dl_bound = dl
            dr_bound = dr

        ok_l = dl_bound <= rad
        ok_r = dr_bound <= rad
        if use_labels:
            qlab = query_labels[lanes]
            ok_l &= node_labels[l_child] != qlab
            ok_r &= node_labels[r_child] != qlab

        leaf_l = l_child >= leaf_base
        leaf_r = r_child >= leaf_base

        take_l = ok_l & leaf_l
        if np.any(take_l):
            eval_leaves(lanes[take_l], l_child[take_l])
        take_r = ok_r & leaf_r
        if np.any(take_r):
            eval_leaves(lanes[take_r], r_child[take_r])

        push_l = ok_l & ~leaf_l
        push_r = ok_r & ~leaf_r
        both = push_l & push_r
        near_is_l = dl <= dr
        far = np.where(near_is_l, r_child, l_child)
        near = np.where(near_is_l, l_child, r_child)
        first = np.where(both, far, np.where(push_l, l_child, r_child))

        any_push = push_l | push_r
        sub1 = lanes[any_push]
        stack[sub1, sp[sub1]] = first[any_push].astype(np.int32)
        sp[sub1] += 1
        sub2 = lanes[both]
        stack[sub2, sp[sub2]] = near[both].astype(np.int32)
        sp[sub2] += 1
        local.stack_ops += sub1.size + sub2.size

    trace.flush(local)
    return NearestResult(best_pos, best_sq, best_key)


def knn_reference(
    bvh: BVH,
    query_points: np.ndarray,
    k: int,
    *,
    counters: Optional[CostCounters] = None,
) -> KnnResult:
    """k nearest neighbors, one popped node per lane per step."""
    query_points = validate_query_points(bvh, query_points)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    B = query_points.shape[0]
    leaf_base = bvh.leaf_base

    kbest = np.full((B, k), np.inf)
    kpos = np.full((B, k), -1, dtype=np.int64)

    trace = WarpTrace()
    local = counters if counters is not None else CostCounters()
    local.kernel_launches += 1
    local.max_batch = max(local.max_batch, B)

    def eval_leaves(lane: np.ndarray, leaf_nodes: np.ndarray) -> None:
        local.leaf_visits += lane.size
        ppos = leaf_nodes - leaf_base
        d = points_sq(query_points[lane], bvh.points[ppos])
        local.distance_evals += lane.size
        improving = d < kbest[lane, -1]
        if not np.any(improving):
            return
        lane = lane[improving]
        ppos = ppos[improving]
        d = d[improving]
        merge_k_best(kbest, kpos, lane, ppos, d, k)

    if bvh.n == 1:
        eval_leaves(np.arange(B, dtype=np.int64),
                    np.zeros(B, dtype=np.int64))
        return KnnResult(kpos, kbest)

    stack, sp = _alloc_stack(bvh, B)
    stack[:, 0] = 0
    sp[:] = 1
    left, right = bvh.left, bvh.right
    lo, hi = bvh.lo, bvh.hi

    while True:
        active_mask = sp > 0
        lanes = np.nonzero(active_mask)[0]
        if lanes.size == 0:
            break
        trace.step(active_mask)

        sp[lanes] -= 1
        node = stack[lanes, sp[lanes]].astype(np.int64)
        qp = query_points[lanes]
        rad = kbest[lanes, -1]
        d_node = point_box_sq(qp, lo[node], hi[node])
        local.nodes_visited += lanes.size
        local.box_distance_evals += lanes.size
        local.stack_ops += lanes.size
        keep = d_node <= rad
        if not np.any(keep):
            continue
        lanes = lanes[keep]
        node = node[keep]
        qp = qp[keep]
        rad = rad[keep]

        l_child = left[node]
        r_child = right[node]
        dl = point_box_sq(qp, lo[l_child], hi[l_child])
        dr = point_box_sq(qp, lo[r_child], hi[r_child])
        local.box_distance_evals += 2 * lanes.size

        ok_l = dl <= rad
        ok_r = dr <= rad
        leaf_l = l_child >= leaf_base
        leaf_r = r_child >= leaf_base

        take_l = ok_l & leaf_l
        if np.any(take_l):
            eval_leaves(lanes[take_l], l_child[take_l])
        take_r = ok_r & leaf_r
        if np.any(take_r):
            eval_leaves(lanes[take_r], r_child[take_r])

        push_l = ok_l & ~leaf_l
        push_r = ok_r & ~leaf_r
        both = push_l & push_r
        near_is_l = dl <= dr
        far = np.where(near_is_l, r_child, l_child)
        near = np.where(near_is_l, l_child, r_child)
        first = np.where(both, far, np.where(push_l, l_child, r_child))

        any_push = push_l | push_r
        sub1 = lanes[any_push]
        stack[sub1, sp[sub1]] = first[any_push].astype(np.int32)
        sp[sub1] += 1
        sub2 = lanes[both]
        stack[sub2, sp[sub2]] = near[both].astype(np.int32)
        sp[sub2] += 1
        local.stack_ops += sub1.size + sub2.size

    trace.flush(local)
    return KnnResult(kpos, kbest)
