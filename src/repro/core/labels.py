"""``reduceLabels``: propagate component labels from leaves to internal nodes.

Figure 4 of the paper: an internal node whose two children carry the same
component label inherits it; otherwise it is marked invalid, meaning its
subtree spans multiple components and cannot be skipped.  The real GPU
kernel runs one thread per leaf walking upwards with an atomic hand-off;
here the precomputed bottom-up level schedule
(:func:`repro.bvh.refit.bottom_up_schedule`) is processed in order — by
one C pass under the ``compiled`` engine (``steps.c``), by one
vectorized NumPy pass per level under ``reference`` — identical results,
identical per-node work.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bvh import compiled
from repro.bvh.bvh import BVH
from repro.bvh.traversal import INVALID_LABEL
from repro.kokkos.counters import CostCounters


def reduce_labels(
    bvh: BVH,
    labels_sorted: np.ndarray,
    *,
    enabled: bool = True,
    out: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Per-node component labels over all ``2n - 1`` BVH nodes.

    ``labels_sorted[i]`` is the component of the point at sorted position
    ``i``.  Returns ``node_labels`` where entries are the common component
    of the node's subtree or :data:`INVALID_LABEL`; a leaf carries its
    point's label.

    ``enabled=False`` marks every internal node invalid — this is the
    ablation switch for Optimization 1 (leaf labels are still required for
    the component constraint itself).

    ``out`` may supply a preallocated ``(2n - 1,)`` int64 buffer, which
    the Borůvka loop reuses across iterations.
    """
    n = bvh.n
    labels_sorted = np.asarray(labels_sorted, dtype=np.int64)
    if labels_sorted.shape != (n,):
        raise ValueError(
            f"labels shape {labels_sorted.shape} does not match n={n}")

    if out is None:
        node_labels = np.empty(bvh.n_nodes, dtype=np.int64)
    else:
        node_labels = out
    leaf_base = bvh.leaf_base
    node_labels[leaf_base:] = labels_sorted
    if n == 1:
        return node_labels

    if not enabled:
        node_labels[:leaf_base] = INVALID_LABEL
        if counters is not None:
            counters.record_bulk(n - 1, ops_per_item=1.0, bytes_per_item=8.0)
        return node_labels

    if compiled.selected():
        compiled.reduce_labels_compiled(bvh, node_labels)
    else:
        left, right = bvh.left, bvh.right
        for ids in bvh.schedule:
            lab_l = node_labels[left[ids]]
            lab_r = node_labels[right[ids]]
            node_labels[ids] = np.where(lab_l == lab_r, lab_l,
                                        INVALID_LABEL)
    if counters is not None:
        # One thread per leaf walking to the root: ~2(n-1) node updates.
        counters.record_bulk(n - 1, ops_per_item=4.0, bytes_per_item=24.0)
    return node_labels
