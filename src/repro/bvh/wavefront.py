"""Wavefront traversal kernels: multi-pop frontiers over blocked leaves.

The single-pop reference kernels (:mod:`repro.bvh.reference`) advance every
query lane by exactly one BVH node per Python iteration, so end-to-end time
is dominated by the iteration count of the *deepest* lane — pure
interpreter overhead, not arithmetic.  The wavefront kernels drain a
variable number of stack entries per lane per iteration into one flattened
``(lane, node)`` frontier, processing the whole frontier with the same
vectorized passes.  Four design decisions carry the speedup:

* **adaptive drain width** — the per-lane drain is
  ``clamp(FRONTIER_TARGET // active_lanes, 1, width)``: while many lanes
  are active the kernel pops one node per lane (the batch is already wide;
  draining deeper only staleness the pruning radius), and as lanes finish
  the survivors drain more entries per iteration, so the flattened frontier
  — and with it the per-iteration vector width — stays large through the
  traversal tail;
* **distance-carrying stacks** — each pushed child's point-box lower bound
  is stored next to its node id, so the mandatory re-test against the
  shrunken radius (Algorithm 2, line 9) is a comparison on remembered
  values instead of a re-gathered, re-computed box distance; the two
  children of every surviving entry are then bounded in one flat pass;
* **per-dimension coordinates** — points and box corners are read from
  one contiguous 1D array per dimension
  (:class:`~repro.bvh.plan.TreeCoords`, cached per tree on the
  workspace), so every squared distance is ``d`` cheap 1D gathers summed
  left to right — bit-identical to the row-layout
  :func:`~repro.geometry.distance.points_sq` the reference engine uses;
* **blocked leaves** — a leaf visit evaluates its whole point block with
  per-point admissibility masked before the distance computation, and all
  candidates of a drain fold into the running best via scatter-min passes
  (:func:`repro.bvh.query.update_nearest_best`) — no per-candidate sort.

Results are identical to the reference engine whenever candidate order is
immaterial: keyed nearest queries minimize a total order
``(distance, pair key)``, so the EMST pipeline gets byte-identical edges,
weights and tie-breaks; k-NN distance columns match because the k smallest
distances are order-free.  Only *positions* of exactly-tied unkeyed
candidates may differ — the same caveat that already applied across tree
rebuilds.

Counter semantics under multi-pop (pinned by the regression tests):

* ``nodes_visited`` / ``stack_ops`` count flattened ``(lane, node)``
  frontier entries — each drained entry is one node pop, and each pushed
  child one stack write;
* ``box_distance_evals`` counts *computed* box distances: one per query
  for the root seed plus two fused child evaluations per entry surviving
  the re-test (the re-test itself reuses the stored value, so it is a
  comparison, not an evaluation — the one counter that differs from the
  recomputing reference engine);
* ``leaf_visits`` counts ``(lane, leaf)`` visits, ``distance_evals``
  admissible *point* candidates (a blocked leaf contributes up to
  ``leaf_size``);
* ``lane_steps`` / ``warp_steps`` advance once per *drain* for every lane
  (warp) with a non-empty stack — a drain is what a SIMT iteration becomes.

With ``width=1`` and ``leaf_size=1`` every counter except
``box_distance_evals`` matches the reference kernels exactly, and every
result does too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.bvh.bvh import BVH
from repro.bvh.plan import TreeCoords
from repro.bvh.query import (
    _NO_KEY,
    KnnResult,
    NearestResult,
    leaf_candidates,
    merge_k_best,
    single_leaf_excluded,
    pair_keys,
    resolve_point_labels,
    update_nearest_best,
    validate_query_points,
)
from repro.bvh.workspace import TraversalWorkspace
from repro.errors import InvalidInputError
from repro.geometry.distance import gathered_box_sq, gathered_points_sq
from repro.kokkos.counters import CostCounters, WarpTrace

#: Default cap on stack entries drained per lane per iteration.  Chosen by
#: the ``bench_kernels`` width sweep (see README "Performance"): wide
#: enough to collapse the Python-iteration count of the traversal tail,
#: narrow enough that the stale-radius overvisit stays in the noise.
DEFAULT_WIDTH = 64

#: Target flattened frontier size per drain (see the module docstring).
FRONTIER_TARGET = 32768


def _effective_width(n_active: int, width: int) -> int:
    """Adaptive drain width for ``n_active`` lanes, capped at ``width``."""
    return max(1, min(width, FRONTIER_TARGET // max(n_active, 1)))


def _drain(stack: np.ndarray, dstack: Optional[np.ndarray], sp: np.ndarray,
           lanes: np.ndarray, width: int
           ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Pop up to ``width`` entries per active lane, flattened.

    Returns ``(lane_of, node, dist)`` over all popped entries (``dist``
    ``None`` when no distance stack is used); entries of one lane appear
    top-of-stack first (LIFO within the drain), grouped by ascending lane.
    """
    if width == 1:
        sp[lanes] -= 1
        cols = sp[lanes]
        node = stack[lanes, cols].astype(np.int64)
        dist = dstack[lanes, cols] if dstack is not None else None
        return lanes, node, dist
    t = np.minimum(sp[lanes], width)
    lane_of = np.repeat(lanes, t)
    ends = np.cumsum(t)
    within = np.arange(int(ends[-1]), dtype=np.int64) \
        - np.repeat(ends - t, t)
    cols = sp[lane_of] - 1 - within
    node = stack[lane_of, cols].astype(np.int64)
    dist = dstack[lane_of, cols] if dstack is not None else None
    sp[lanes] -= t
    return lane_of, node, dist


def _scatter_pushes(
    workspace: TraversalWorkspace,
    stack: np.ndarray,
    dstack: Optional[np.ndarray],
    sp: np.ndarray,
    batch: int,
    lane: np.ndarray,
    any_push: np.ndarray,
    both: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    first_d: Optional[np.ndarray],
    second_d: Optional[np.ndarray],
    unique_lanes: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Write this drain's pushes into the per-lane stacks, sort-free.

    ``lane`` is the kept frontier (ascending lane, top-of-stack first
    within a lane); ``first``/``second`` are each entry's pushes
    (``second`` only where ``both``), with their box distances when a
    distance stack is in use.  Per lane, *later* frontier entries write to
    *lower* stack slots, so the next drain pops the topmost entry's near
    child first — preserving the reference engine's best-first descent
    preference.  Returns the (possibly regrown) stacks and the push count.
    """
    c = any_push.astype(np.int64)
    c += both
    if unique_lanes:
        # Single-pop drain: each lane appears at most once, so pushes go
        # straight above the lane's stack pointer — no prefix machinery.
        # (Matches the reference engine's push path op for op.)
        total = int(c.sum())
        if total == 0:
            return stack, dstack, 0
        need = int(sp.max()) + 2
        if need > stack.shape[1]:
            stack, dstack = workspace.grow_stack(batch, need, stack, sp,
                                                 dstack)
        lane_a = lane[any_push]
        col_a = sp[lane_a]
        stack[lane_a, col_a] = first[any_push].astype(np.int32)
        sp[lane_a] += 1
        lane_b = lane[both]
        col_b = sp[lane_b]
        stack[lane_b, col_b] = second[both].astype(np.int32)
        sp[lane_b] += 1
        if dstack is not None:
            dstack[lane_a, col_a] = first_d[any_push]
            dstack[lane_b, col_b] = second_d[both]
        return stack, dstack, total
    counts = np.bincount(lane, weights=c, minlength=batch).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return stack, dstack, 0
    need = int((sp + counts).max())
    if need > stack.shape[1]:
        stack, dstack = workspace.grow_stack(batch, need, stack, sp, dstack)
    # Within-lane exclusive prefix of push counts, entry order.
    prefix = np.cumsum(c) - c
    heads = np.ones(lane.size, dtype=bool)
    heads[1:] = lane[1:] != lane[:-1]
    starts = np.nonzero(heads)[0]
    lengths = np.diff(np.append(starts, lane.size))
    prefix = prefix - np.repeat(prefix[starts], lengths)
    # Later entries get lower slots: base descends as the prefix grows.
    base = sp[lane] + counts[lane] - prefix - c
    lane_a = lane[any_push]
    col_a = base[any_push]
    stack[lane_a, col_a] = first[any_push].astype(np.int32)
    lane_b = lane[both]
    col_b = base[both] + 1
    stack[lane_b, col_b] = second[both].astype(np.int32)
    if dstack is not None:
        dstack[lane_a, col_a] = first_d[any_push]
        dstack[lane_b, col_b] = second_d[both]
    sp += counts
    return stack, dstack, total



def _children_box_sq(coords: TreeCoords, qcols: np.ndarray,
                     lane: np.ndarray, l_child: np.ndarray,
                     r_child: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Box lower bounds of both children of each frontier entry, ``(k, 2)``.

    Both children are evaluated as one flat ``2k`` batch of 1D gathers per
    dimension (a ``(k, 1)`` against ``(k, 2)`` broadcast runs NumPy's
    inner loop two elements at a time), and the squared terms accumulate
    left to right (:func:`~repro.geometry.distance.gathered_box_sq`) —
    NOT einsum, whose FMA kernels round differently: bound-pair
    candidates sit at *exactly* the initial radius, so a 1-ULP drift here
    flips inclusive ``<=`` pruning decisions and loses exact candidates.
    This matches :func:`~repro.geometry.distance.point_box_sq` bit for bit.
    """
    c2 = np.stack([l_child, r_child], axis=1)
    d = gathered_box_sq(qcols, np.repeat(lane, 2), coords.lo, coords.hi,
                        c2.ravel())
    return c2, d.reshape(-1, 2)


def _query_columns(coords: TreeCoords, query_points: np.ndarray,
                   self_queries: bool) -> np.ndarray:
    """Per-dimension query coordinates, ``(d, B)``.

    A self-query batch *is* the tree's sorted points, whose columns the
    workspace already holds; any other batch gets one copy per call.
    """
    if self_queries:
        return coords.points
    return np.ascontiguousarray(query_points.T)


def _root_box_sq(coords: TreeCoords, qcols: np.ndarray) -> np.ndarray:
    """Every query's lower bound to the root box (node 0)."""
    batch = qcols.shape[1]
    return gathered_box_sq(qcols, np.arange(batch), coords.lo, coords.hi,
                           np.zeros(batch, dtype=np.int64))


def _seed_from_plan(
    ws: TraversalWorkspace,
    bvh: BVH,
    local: CostCounters,
    stack: np.ndarray,
    dstack: np.ndarray,
    sp: np.ndarray,
    radius: np.ndarray,
    query_labels: Optional[np.ndarray],
    node_labels: Optional[np.ndarray],
    query_core_sq: Optional[np.ndarray],
    exclude_position: Optional[np.ndarray],
) -> None:
    """Seed per-lane stacks from the tree's precomputed query plan.

    Lane ``i``'s stack receives every admissible path sibling (bound
    within the initial radius, component label differing, not the
    excluded single-point leaf) plus its own leaf, deepest on top.  The
    seeded set is a superset of the subtrees a top-down traversal would
    enter, tested on identical float values, so results are exact; the
    pop re-test prunes the rest as the radius shrinks.  The bound test
    runs first, over every plan entry; labels and exclusions are tested
    only on the entries that pass it.
    """
    plan, built = ws.plan_for(bvh)
    if built:
        local.box_distance_evals += plan.build_box_evals
    lane = plan.lane
    if query_core_sq is None:
        adm = plan.dist <= radius[lane]
    else:
        adm = np.maximum(plan.dist, query_core_sq[lane]) <= radius[lane]
    idx = np.flatnonzero(adm)
    lane = lane[idx]
    node = plan.nodes[idx]
    keep = None
    if query_labels is not None:
        keep = node_labels[node] != query_labels[lane]
    if exclude_position is not None:
        ok = ~single_leaf_excluded(bvh, node, node >= bvh.leaf_base,
                                   exclude_position[lane])
        keep = ok if keep is None else keep & ok
    if keep is not None:
        idx = idx[keep]
        lane = lane[keep]
        node = node[keep]
    local.record_bulk(bvh.n * plan.depth, ops_per_item=3.0,
                      bytes_per_item=16.0)
    # Entries stay in row order, so each lane's survivors fill its stack
    # from slot 0 upwards, root side at the bottom.
    counts = np.bincount(lane, minlength=bvh.n)
    sp[:] = counts
    dest = np.arange(idx.size, dtype=np.int64) \
        - (np.cumsum(counts) - counts)[lane]
    stack[lane, dest] = node.astype(np.int32)
    dstack[lane, dest] = plan.dist[idx]
    local.stack_ops += idx.size


def nearest_wavefront(
    bvh: BVH,
    query_points: np.ndarray,
    *,
    query_labels: Optional[np.ndarray] = None,
    node_labels: Optional[np.ndarray] = None,
    point_labels: Optional[np.ndarray] = None,
    init_radius_sq: Optional[np.ndarray] = None,
    query_ids: Optional[np.ndarray] = None,
    point_ids: Optional[np.ndarray] = None,
    query_core_sq: Optional[np.ndarray] = None,
    point_core_sq: Optional[np.ndarray] = None,
    exclude_position: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
    width: Optional[int] = None,
    workspace: Optional[TraversalWorkspace] = None,
    self_queries: bool = False,
) -> NearestResult:
    """Constrained nearest neighbor with multi-pop frontier drains.

    ``self_queries=True`` asserts the batch is exactly ``bvh.points`` in
    sorted order (lane ``i`` queries from sorted position ``i``); the
    kernel then seeds each lane's stack from the tree's precomputed
    :class:`~repro.bvh.plan.QueryPlan` instead of descending from the
    root — the big win for the Borůvka loop, which issues this identical
    batch every round.
    """
    query_points = validate_query_points(bvh, query_points)
    width = DEFAULT_WIDTH if width is None else width  # resolved per call
    if width < 1:
        raise InvalidInputError(f"width must be >= 1, got {width}")
    B = query_points.shape[0]
    if self_queries and B != bvh.n:
        raise InvalidInputError(
            "self_queries requires one lane per indexed point")
    leaf_base = bvh.leaf_base

    best_sq = np.full(B, np.inf)
    best_pos = np.full(B, -1, dtype=np.int64)
    best_key = np.full(B, _NO_KEY, dtype=np.uint64)
    radius = (np.full(B, np.inf) if init_radius_sq is None
              else np.asarray(init_radius_sq, dtype=np.float64).copy())
    if radius.shape != (B,):
        raise InvalidInputError("init_radius_sq must have one entry per query")

    use_labels = query_labels is not None
    plabels = resolve_point_labels(bvh, query_labels, node_labels,
                                   point_labels)
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
    ws = workspace if workspace is not None else TraversalWorkspace()
    coords = ws.coords_for(bvh)
    qcols = _query_columns(coords, query_points, self_queries)

    def eval_leaves(cand_lane: np.ndarray, leaf_nodes: np.ndarray) -> None:
        """Blocked exact evaluation; ``cand_lane`` may repeat lanes."""
        local.leaf_visits += cand_lane.size
        lane, ppos = leaf_candidates(bvh, cand_lane, leaf_nodes)
        ok = np.ones(lane.size, dtype=bool)
        if use_labels:
            ok &= plabels[ppos] != query_labels[lane]
        if exclude_position is not None:
            ok &= ppos != exclude_position[lane]
        if not np.all(ok):
            lane = lane[ok]
            ppos = ppos[ok]
        if lane.size == 0:
            return
        d = gathered_points_sq(qcols, lane, coords.points, ppos)
        if use_mrd:
            d = np.maximum(d, query_core_sq[lane])
            d = np.maximum(d, point_core_sq[ppos])
        local.distance_evals += lane.size
        # Admission: only candidates inside the current cutoff may win
        # (exact no-op for single-point leaves; see the reference engine).
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

    if bvh.n_leaves == 1:
        ok = np.ones(B, dtype=bool)
        if use_labels:
            ok &= node_labels[0] != query_labels
        sub = np.nonzero(ok)[0]
        if sub.size:
            eval_leaves(sub, np.zeros(sub.size, dtype=np.int64))
        return NearestResult(best_pos, best_sq, best_key)

    stack, dstack, sp = ws.stacks_for(B, max(bvh.height + 2, 4))
    if self_queries:
        _seed_from_plan(ws, bvh, local, stack, dstack, sp, radius,
                        query_labels, node_labels, query_core_sq,
                        exclude_position)
    else:
        stack[:, 0] = 0  # root
        # Seed the distance stack with the true root bound so pruning
        # decisions are bit-identical to the recomputing reference engine.
        dstack[:, 0] = _root_box_sq(coords, qcols)
        local.box_distance_evals += B
        sp[:] = 1
        if use_labels:
            sp[node_labels[0] == query_labels] = 0

    left, right = bvh.left, bvh.right
    single_leaves = bvh.n_leaves == bvh.n

    # Lanes only ever *leave* the active set (a push in this drain can
    # only refill a lane that was drained this same iteration, and the
    # filter runs before the next drain), so the set is maintained
    # incrementally — tail iterations cost O(active), not O(batch).
    lanes = np.nonzero(sp > 0)[0]

    while True:
        lanes = lanes[sp[lanes] > 0]
        if lanes.size == 0:
            break
        trace.step_lanes(lanes)

        w_eff = _effective_width(lanes.size, width)
        lane_of, node, d_node = _drain(stack, dstack, sp, lanes, w_eff)
        total = lane_of.size
        local.nodes_visited += total
        local.stack_ops += total

        # Re-test every drained entry against the radius as of this drain
        # (Algorithm 2, line 9) — on the remembered bound, no recompute.
        keep = d_node <= radius[lane_of]
        if not np.any(keep):
            continue
        lane_of = lane_of[keep]
        node = node[keep]
        if self_queries:
            # Seeded stacks hold leaf siblings; evaluate them directly.
            leaf_pop = node >= leaf_base
            if np.any(leaf_pop):
                eval_leaves(lane_of[leaf_pop], node[leaf_pop])
                inner = ~leaf_pop
                lane_of = lane_of[inner]
                node = node[inner]
                if lane_of.size == 0:
                    continue
        rad = radius[lane_of]

        l_child = left[node]
        r_child = right[node]
        c2, dlr = _children_box_sq(coords, qcols, lane_of, l_child, r_child)
        dl = dlr[:, 0]
        dr = dlr[:, 1]
        local.box_distance_evals += 2 * lane_of.size
        if use_mrd:
            # mrd(u, v) >= core(u): tighten the subtree lower bound.
            qc = query_core_sq[lane_of]
            ok_lr = np.maximum(dlr, qc[:, None]) <= rad[:, None]
        else:
            ok_lr = dlr <= rad[:, None]
        if use_labels:
            qlab = query_labels[lane_of]
            ok_lr &= node_labels[c2] != qlab[:, None]
        ok_l = ok_lr[:, 0]
        ok_r = ok_lr[:, 1]

        leaf_l = l_child >= leaf_base
        leaf_r = r_child >= leaf_base
        if exclude_position is not None:
            excl = exclude_position[lane_of]
            if single_leaves:
                ok_l &= ~(leaf_l & (l_child - leaf_base == excl))
                ok_r &= ~(leaf_r & (r_child - leaf_base == excl))
            else:
                ok_l &= ~single_leaf_excluded(bvh, l_child, leaf_l, excl)
                ok_r &= ~single_leaf_excluded(bvh, r_child, leaf_r, excl)

        take_l = ok_l & leaf_l
        take_r = ok_r & leaf_r
        if np.any(take_l) or np.any(take_r):
            eval_leaves(
                np.concatenate([lane_of[take_l], lane_of[take_r]]),
                np.concatenate([l_child[take_l], r_child[take_r]]))

        push_l = ok_l & ~leaf_l
        push_r = ok_r & ~leaf_r
        both = push_l & push_r
        any_push = push_l | push_r
        if not np.any(any_push):
            continue
        near_is_l = dl <= dr
        far = np.where(near_is_l, r_child, l_child)
        far_d = np.where(near_is_l, dr, dl)
        near = np.where(near_is_l, l_child, r_child)
        near_d = np.where(near_is_l, dl, dr)
        first = np.where(both, far, np.where(push_l, l_child, r_child))
        first_d = np.where(both, far_d, np.where(push_l, dl, dr))
        stack, dstack, pushed = _scatter_pushes(
            ws, stack, dstack, sp, B, lane_of, any_push, both,
            first, near, first_d, near_d, unique_lanes=w_eff == 1)
        local.stack_ops += pushed

    trace.flush(local)
    return NearestResult(best_pos, best_sq, best_key)


def knn_wavefront(
    bvh: BVH,
    query_points: np.ndarray,
    k: int,
    *,
    exclude_position: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
    width: Optional[int] = None,
    workspace: Optional[TraversalWorkspace] = None,
    self_queries: bool = False,
) -> KnnResult:
    """k nearest neighbors with multi-pop frontier drains.

    ``self_queries=True`` (batch == ``bvh.points`` in sorted order) seeds
    each lane's stack from the precomputed query plan, deepest subtree on
    top: the lane's own neighborhood is evaluated first, the k-list
    fills with near hits, and the remembered bounds prune the rest at
    pop time — the core-distance pass shares the plan the Borůvka rounds
    build.
    """
    query_points = validate_query_points(bvh, query_points)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    width = DEFAULT_WIDTH if width is None else width  # resolved per call
    if width < 1:
        raise InvalidInputError(f"width must be >= 1, got {width}")
    B = query_points.shape[0]
    if self_queries and B != bvh.n:
        raise InvalidInputError(
            "self_queries requires one lane per indexed point")
    leaf_base = bvh.leaf_base

    kbest = np.full((B, k), np.inf)
    kpos = np.full((B, k), -1, dtype=np.int64)

    trace = WarpTrace()
    local = counters if counters is not None else CostCounters()
    local.kernel_launches += 1
    local.max_batch = max(local.max_batch, B)
    ws = workspace if workspace is not None else TraversalWorkspace()
    coords = ws.coords_for(bvh)
    qcols = _query_columns(coords, query_points, self_queries)

    def eval_leaves(cand_lane: np.ndarray, leaf_nodes: np.ndarray) -> None:
        local.leaf_visits += cand_lane.size
        lane, ppos = leaf_candidates(bvh, cand_lane, leaf_nodes)
        if exclude_position is not None:
            ok = ppos != exclude_position[lane]
            lane = lane[ok]
            ppos = ppos[ok]
        if lane.size == 0:
            return
        d = gathered_points_sq(qcols, lane, coords.points, ppos)
        local.distance_evals += lane.size
        improving = d < kbest[lane, -1]
        if not np.any(improving):
            return
        merge_k_best(kbest, kpos, lane[improving], ppos[improving],
                     d[improving], k)

    if bvh.n_leaves == 1:
        eval_leaves(np.arange(B, dtype=np.int64),
                    np.zeros(B, dtype=np.int64))
        return KnnResult(kpos, kbest)

    stack, dstack, sp = ws.stacks_for(B, max(bvh.height + 2, 4))
    if self_queries:
        _seed_from_plan(ws, bvh, local, stack, dstack, sp,
                        kbest[:, -1], None, None, None, exclude_position)
    else:
        stack[:, 0] = 0
        dstack[:, 0] = _root_box_sq(coords, qcols)
        local.box_distance_evals += B
        sp[:] = 1
    left, right = bvh.left, bvh.right
    single_leaves = bvh.n_leaves == bvh.n
    lanes = np.nonzero(sp > 0)[0]

    while True:
        lanes = lanes[sp[lanes] > 0]
        if lanes.size == 0:
            break
        trace.step_lanes(lanes)

        w_eff = _effective_width(lanes.size, width)
        lane_of, node, d_node = _drain(stack, dstack, sp, lanes, w_eff)
        total = lane_of.size
        local.nodes_visited += total
        local.stack_ops += total

        keep = d_node <= kbest[lane_of, -1]
        if not np.any(keep):
            continue
        lane_of = lane_of[keep]
        node = node[keep]
        if self_queries:
            # Seeded stacks hold leaf siblings; evaluate them directly.
            leaf_pop = node >= leaf_base
            if np.any(leaf_pop):
                eval_leaves(lane_of[leaf_pop], node[leaf_pop])
                inner = ~leaf_pop
                lane_of = lane_of[inner]
                node = node[inner]
                if lane_of.size == 0:
                    continue
        rad = kbest[lane_of, -1]

        l_child = left[node]
        r_child = right[node]
        _, dlr = _children_box_sq(coords, qcols, lane_of, l_child, r_child)
        dl = dlr[:, 0]
        dr = dlr[:, 1]
        local.box_distance_evals += 2 * lane_of.size

        ok_l = dl <= rad
        ok_r = dr <= rad
        leaf_l = l_child >= leaf_base
        leaf_r = r_child >= leaf_base
        if exclude_position is not None:
            excl = exclude_position[lane_of]
            if single_leaves:
                ok_l &= ~(leaf_l & (l_child - leaf_base == excl))
                ok_r &= ~(leaf_r & (r_child - leaf_base == excl))
            else:
                ok_l &= ~single_leaf_excluded(bvh, l_child, leaf_l, excl)
                ok_r &= ~single_leaf_excluded(bvh, r_child, leaf_r, excl)

        take_l = ok_l & leaf_l
        take_r = ok_r & leaf_r
        if np.any(take_l) or np.any(take_r):
            eval_leaves(
                np.concatenate([lane_of[take_l], lane_of[take_r]]),
                np.concatenate([l_child[take_l], r_child[take_r]]))

        push_l = ok_l & ~leaf_l
        push_r = ok_r & ~leaf_r
        both = push_l & push_r
        any_push = push_l | push_r
        if not np.any(any_push):
            continue
        near_is_l = dl <= dr
        far = np.where(near_is_l, r_child, l_child)
        far_d = np.where(near_is_l, dr, dl)
        near = np.where(near_is_l, l_child, r_child)
        near_d = np.where(near_is_l, dl, dr)
        first = np.where(both, far, np.where(push_l, l_child, r_child))
        first_d = np.where(both, far_d, np.where(push_l, dl, dr))
        stack, dstack, pushed = _scatter_pushes(
            ws, stack, dstack, sp, B, lane_of, any_push, both,
            first, near, first_d, near_d, unique_lanes=w_eff == 1)
        local.stack_ops += pushed

    trace.flush(local)
    return KnnResult(kpos, kbest)


def radius_wavefront(
    bvh: BVH,
    query_points: np.ndarray,
    radius: float,
    *,
    counters: Optional[CostCounters] = None,
    width: Optional[int] = None,
    workspace: Optional[TraversalWorkspace] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All indexed points within ``radius``, multi-pop frontier drains.

    The cutoff is fixed, so pushed children are already final — no
    distance stack and no re-test, mirroring the reference kernel.
    """
    query_points = validate_query_points(bvh, query_points)
    if radius < 0:
        raise InvalidInputError(f"radius must be >= 0, got {radius}")
    width = DEFAULT_WIDTH if width is None else width  # resolved per call
    if width < 1:
        raise InvalidInputError(f"width must be >= 1, got {width}")
    B = query_points.shape[0]
    r_sq = float(radius) * float(radius)
    leaf_base = bvh.leaf_base

    local = counters if counters is not None else CostCounters()
    local.kernel_launches += 1
    local.max_batch = max(local.max_batch, B)
    trace = WarpTrace()

    found_q: List[np.ndarray] = []
    found_p: List[np.ndarray] = []
    ws = workspace if workspace is not None else TraversalWorkspace()
    coords = ws.coords_for(bvh)
    qcols = _query_columns(coords, query_points, False)

    def emit(cand_lane: np.ndarray, leaf_nodes: np.ndarray) -> None:
        local.leaf_visits += cand_lane.size
        lane, ppos = leaf_candidates(bvh, cand_lane, leaf_nodes)
        d = gathered_points_sq(qcols, lane, coords.points, ppos)
        local.distance_evals += lane.size
        hit = d <= r_sq
        if np.any(hit):
            found_q.append(lane[hit])
            found_p.append(ppos[hit])

    if bvh.n_leaves == 1:
        emit(np.arange(B, dtype=np.int64), np.zeros(B, dtype=np.int64))
    else:
        stack, sp = ws.stack_for(B, max(bvh.height + 2, 4))
        stack[:, 0] = 0
        sp[:] = 1
        left, right = bvh.left, bvh.right
        lanes = np.nonzero(sp > 0)[0]
        while True:
            lanes = lanes[sp[lanes] > 0]
            if lanes.size == 0:
                break
            trace.step_lanes(lanes)

            w_eff = _effective_width(lanes.size, width)
            lane_of, node, _ = _drain(stack, None, sp, lanes, w_eff)
            total = lane_of.size
            local.nodes_visited += total
            local.stack_ops += total

            l_child = left[node]
            r_child = right[node]
            _, dlr = _children_box_sq(coords, qcols, lane_of, l_child,
                                      r_child)
            dl = dlr[:, 0]
            dr = dlr[:, 1]
            local.box_distance_evals += 2 * total
            ok_l = dl <= r_sq
            ok_r = dr <= r_sq
            leaf_l = l_child >= leaf_base
            leaf_r = r_child >= leaf_base

            take_l = ok_l & leaf_l
            take_r = ok_r & leaf_r
            if np.any(take_l) or np.any(take_r):
                emit(np.concatenate([lane_of[take_l], lane_of[take_r]]),
                     np.concatenate([l_child[take_l], r_child[take_r]]))

            push_l = ok_l & ~leaf_l
            push_r = ok_r & ~leaf_r
            both = push_l & push_r
            any_push = push_l | push_r
            if not np.any(any_push):
                continue
            first = np.where(push_l, l_child, r_child)
            stack, _, pushed = _scatter_pushes(
                ws, stack, None, sp, B, lane_of, any_push, both,
                first, r_child, None, None, unique_lanes=w_eff == 1)
            local.stack_ops += pushed
        trace.flush(local)

    if found_q:
        q_all = np.concatenate(found_q)
        p_all = np.concatenate(found_p)
        order = np.argsort(q_all, kind="stable")
        q_all = q_all[order]
        p_all = p_all[order]
    else:
        q_all = np.empty(0, dtype=np.int64)
        p_all = np.empty(0, dtype=np.int64)
    counts = np.bincount(q_all, minlength=B)
    offsets = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, p_all, q_all
