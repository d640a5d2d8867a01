"""Cluster stability and excess-of-mass extraction (Campello et al. 2015).

Stability of a condensed cluster ``c``:

.. code-block:: none

    sigma(c) = sum over children records (lambda_child - lambda_birth(c)) * size

where ``lambda_birth(c)`` is the density at which ``c`` appeared.  A cluster
is selected when it is more stable than the sum of its descendants'
stabilities; otherwise its children's stability propagates upward.  The
root is never selected (matching ``allow_single_cluster=False`` in the
reference implementation).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.hdbscan.condense import CondensedTree


def _stabilities(tree: CondensedTree):
    """``(ids, stability, row_cluster)`` over the tree's clusters.

    ``ids`` are the cluster ids, ascending (children after parents);
    ``stability[i]`` belongs to ``ids[i]``; ``row_cluster`` maps every
    row's parent to its index in ``ids``.
    """
    cluster_rows = tree.child >= tree.n_points
    born = tree.child[cluster_rows]
    ids = np.unique(np.concatenate([[tree.root], born]))
    row_cluster = np.searchsorted(ids, tree.parent)
    if not (ids[np.minimum(row_cluster, ids.size - 1)] == tree.parent).all():
        raise InvalidInputError("condensed tree names an unknown parent")

    finite_lambda = tree.lambda_val[np.isfinite(tree.lambda_val)]
    lam_cap = float(finite_lambda.max()) if finite_lambda.size else 0.0
    birth = np.zeros(ids.size)  # the root is born at lambda 0
    birth[np.searchsorted(ids, born)] = tree.lambda_val[cluster_rows]
    birth[~np.isfinite(birth)] = lam_cap
    lam = np.where(np.isfinite(tree.lambda_val), tree.lambda_val, lam_cap)
    # bincount adds each cluster's terms in row order, as a running sum
    # over the rows would (and gives integers when there are no rows).
    stability = np.bincount(
        row_cluster, weights=(lam - birth[row_cluster]) * tree.child_size,
        minlength=ids.size).astype(np.float64)
    return ids, stability, row_cluster


def cluster_stabilities(tree: CondensedTree) -> Dict[int, float]:
    """Stability sigma(c) for every condensed cluster id.

    Keys are the root, then each cluster in the order its row appears.
    """
    ids, stability, _ = _stabilities(tree)
    keys = [tree.root] + tree.child[tree.child >= tree.n_points].tolist()
    return dict(zip(keys, stability[np.searchsorted(ids, keys)].tolist()))


def extract_clusters(tree: CondensedTree) -> Tuple[np.ndarray, np.ndarray]:
    """Point labels and membership probabilities by excess of mass.

    Returns ``(labels, probabilities)``: labels are 0-based cluster indices
    (ordered by condensed id) with -1 for noise; probability is the point's
    exit lambda over its cluster's maximum (1.0 for the densest members).
    """
    n = tree.n_points
    ids, stability, row_cluster = _stabilities(tree)
    root = int(np.searchsorted(ids, tree.root))
    cluster_rows = tree.child >= n
    kids = [[] for _ in range(ids.size)]
    for p, k in zip(row_cluster[cluster_rows].tolist(),
                    np.searchsorted(ids, tree.child[cluster_rows]).tolist()):
        kids[p].append(k)

    # Bottom-up (children first): a cluster is selected when it is a leaf
    # or beats the summed value of its children; the root never is.
    stability = stability.tolist()
    selected = [False] * ids.size
    value = [0.0] * ids.size
    for c in reversed(range(ids.size)):
        child_sum = sum(value[k] for k in kids[c])
        if c != root and (not kids[c] or stability[c] >= child_sum):
            selected[c] = True
            value[c] = stability[c]
        else:
            value[c] = child_sum

    # Top-down (parents first): the topmost selected cluster on each path
    # is chosen and owns every cluster below it.
    owner = [-1] * ids.size
    for c in range(ids.size):
        if owner[c] < 0 and selected[c]:
            owner[c] = c
        if owner[c] >= 0:
            for k in kids[c]:
                owner[k] = owner[c]
    owner = np.asarray(owner, dtype=np.int64)
    chosen = owner == np.arange(ids.size)
    label_of = np.cumsum(chosen) - 1  # a chosen cluster's label

    labels = np.full(n, -1, dtype=np.int64)
    probabilities = np.zeros(n, dtype=np.float64)
    point_rows = ~cluster_rows
    own = owner[row_cluster[point_rows]]
    owned = own >= 0
    own = own[owned]
    points = tree.child[point_rows][owned]
    lam = tree.lambda_val[point_rows][owned]

    # Per-cluster max lambda for probability normalization.
    max_lam = np.zeros(ids.size)
    np.maximum.at(max_lam, own, np.where(np.isfinite(lam), lam, 1.0))
    denom = max_lam[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(lam / denom, 1.0)
    labels[points] = label_of[own]
    probabilities[points] = np.where(
        (denom <= 0.0) | ~np.isfinite(lam), 1.0, ratio)
    return labels, probabilities
