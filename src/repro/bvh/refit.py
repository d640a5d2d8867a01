"""Bottom-up passes over the LBVH: level schedule and bounding-box refit.

The GPU construction fills internal-node boxes bottom-up with atomic
"second-arriving thread proceeds" flags.  Here a *level schedule* is
computed once — internal nodes grouped by height above the leaves — and
the refit walks it bottom-up: the ``compiled`` engine in one C pass
(``steps.c``), the ``reference`` engine one vectorized NumPy pass per
level.  The same schedule drives the per-iteration component-label
reduction of the EMST algorithm (:mod:`repro.core.labels`), which is
exactly the paper's ``reduceLabels`` bottom-up traversal reused.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.kokkos.counters import CostCounters


def bottom_up_schedule(left: np.ndarray, right: np.ndarray,
                       n: int) -> List[np.ndarray]:
    """Internal nodes grouped by height (leaves' parents first).

    ``schedule[h]`` contains every internal node whose children are all
    either leaves or internal nodes from earlier groups.  Processing groups
    in order guarantees children are finalized before their parent.  A
    child outside ``1 .. 2n - 2``, a node with two parents or a cycle
    raises :class:`~repro.errors.InvalidInputError`.
    """
    if n < 2:
        raise InvalidInputError("schedule requires n >= 2")
    from repro.bvh import compiled  # compiled -> query -> bvh -> here
    if compiled.selected():
        return compiled.schedule_compiled(left, right, n)
    children = np.concatenate([left, right]).astype(np.int64)
    if children.min() < 1 or children.max() >= 2 * n - 1:
        raise InvalidInputError("child index out of range")
    if np.bincount(children[children < n - 1]).max(initial=0) > 1:
        raise InvalidInputError("hierarchy has a node with two parents")
    n_internal = n - 1
    leaf_base = n - 1
    ready = np.zeros(n_internal, dtype=bool)

    def child_ready(child: np.ndarray) -> np.ndarray:
        is_leaf = child >= leaf_base
        return is_leaf | ready[np.minimum(child, n_internal - 1)]

    schedule: List[np.ndarray] = []
    remaining = n_internal
    while remaining > 0:
        frontier = ~ready & child_ready(left) & child_ready(right)
        ids = np.nonzero(frontier)[0]
        if ids.size == 0:
            raise InvalidInputError(
                "hierarchy contains a cycle or unreachable node")
        schedule.append(ids)
        ready[ids] = True
        remaining -= ids.size
    return schedule


def refit_bounds(
    points: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    schedule: List[np.ndarray],
    counters: Optional[CostCounters] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute node bounding boxes ``(lo, hi)`` for all ``2n - 1`` nodes.

    ``points`` must be in sorted (leaf) order; every leaf is one point and
    gets a degenerate box.  Each internal node is the union of its
    children, processed level by level.  Boxes keep NumPy's zero signs on
    both engines: ``np.minimum(0.0, -0.0)`` is ``-0.0``.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    leaf_base = n - 1
    lo = np.empty((2 * n - 1, dim), dtype=np.float64)
    hi = np.empty((2 * n - 1, dim), dtype=np.float64)
    lo[leaf_base:] = points
    hi[leaf_base:] = points
    from repro.bvh import compiled  # compiled -> query -> bvh -> here
    if compiled.selected():
        compiled.refit_compiled(left, right, schedule, lo, hi)
    else:
        for ids in schedule:
            l_ids = left[ids]
            r_ids = right[ids]
            lo[ids] = np.minimum(lo[l_ids], lo[r_ids])
            hi[ids] = np.maximum(hi[l_ids], hi[r_ids])
    if counters is not None:
        counters.record_bulk(n - 1, ops_per_item=4.0 * dim,
                             bytes_per_item=4.0 * dim * 8.0)
    return lo, hi
