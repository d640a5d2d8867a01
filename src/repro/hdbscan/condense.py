"""Condensed cluster tree (Campello et al. 2015).

Walking the single-linkage dendrogram top-down at decreasing distance
(increasing density ``lambda = 1/distance``): a split where both sides hold
at least ``min_cluster_size`` points creates two new clusters; otherwise the
undersized side's points *fall out* of the surviving cluster at that
lambda.  The result is a small tree over clusters and point-exits, the input
to stability-based extraction.

Representation (column arrays, one row per event):

* ``parent`` — condensed cluster id (root is ``n``),
* ``child`` — point id (< n) or new condensed cluster id (>= n),
* ``lambda_val`` — density at which the child separated from the parent,
* ``child_size`` — 1 for points, subtree point count for clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import InvalidInputError


@dataclass
class CondensedTree:
    """Flat condensed tree; see the module docstring for the columns."""

    parent: np.ndarray
    child: np.ndarray
    lambda_val: np.ndarray
    child_size: np.ndarray
    n_points: int

    @property
    def root(self) -> int:
        """Condensed id of the root cluster."""
        return self.n_points


def _validated(linkage: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Child ids and sizes of a SciPy-convention linkage, as int64.

    Row ``r`` (dendrogram id ``n + r``) may only name points and earlier
    rows, each id at most once, and its size must be its children's
    summed.  That makes the rows one tree under the top merge, so the
    walk below visits every node once and returns, and makes every size
    a true point count.
    """
    n = linkage.shape[0] + 1
    ids = linkage[:, :2]
    limit = (n + np.arange(n - 1, dtype=np.float64))[:, None]
    if not ((ids >= 0.0) & (ids < limit) & (ids == np.floor(ids))).all():
        raise InvalidInputError(
            "linkage row r may only name ids in [0, n + r)")
    ids = ids.astype(np.int64)
    if ids.size and np.bincount(ids.ravel()).max() > 1:
        raise InvalidInputError("linkage names a child id twice")
    sizes = linkage[:, 3]
    kid_sizes = np.where(ids < n, 1.0, sizes[np.maximum(ids - n, 0)])
    if not (sizes == kid_sizes.sum(axis=1)).all():
        raise InvalidInputError(
            "a linkage row's size must be its children's sizes summed")
    return ids, sizes.astype(np.int64)


def condense_tree(linkage: np.ndarray, min_cluster_size: int) -> CondensedTree:
    """Condense a SciPy-convention linkage under ``min_cluster_size``.

    Rows come out in the order of a top-down stack walk of the
    dendrogram, which visits a node's right side first; an undersized
    side's points leave in the same right-first order.
    """
    if min_cluster_size < 2:
        raise InvalidInputError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}")
    linkage = np.asarray(linkage, dtype=np.float64)
    if linkage.ndim != 2 or linkage.shape[1] != 4:
        raise InvalidInputError("linkage must be an (n-1, 4) matrix")
    n = linkage.shape[0] + 1
    ids, row_sizes = _validated(linkage)

    # Per dendrogram id (points first, then rows): children, size and,
    # for rows, lambda = 1/distance (infinite at distance 0).
    left = [0] * n + ids[:, 0].tolist()
    right = [0] * n + ids[:, 1].tolist()
    size = np.concatenate([np.ones(n, dtype=np.int64), row_sizes])
    big = (size >= min_cluster_size).tolist()
    dist = linkage[:, 2]
    lam = np.full(2 * n - 1, np.inf)
    np.divide(1.0, dist, out=lam[n:], where=dist > 0.0)

    # Every walked node emits one run of consecutive rows, all with the
    # node's cluster as parent and its lambda: two new clusters at a true
    # split, else the points of its undersized side(s).
    children, heads = [], []  # heads: dendrogram node of each new cluster
    run_cluster, run_node, run_length = [], [], []
    next_cluster = n + 1  # n is the root's condensed id
    # Stack of (dendrogram node, condensed cluster it belongs to).  Only
    # rows are pushed: a pushed side holds >= min_cluster_size >= 2 points.
    stack = [(2 * n - 2, n)] if n > 1 else []
    while stack:
        node, cluster = stack.pop()
        kid_l, kid_r = left[node], right[node]
        start = len(children)
        if big[kid_l] and big[kid_r]:
            children += (next_cluster, next_cluster + 1)
            heads += (kid_l, kid_r)
            stack.append((kid_l, next_cluster))
            stack.append((kid_r, next_cluster + 1))
            next_cluster += 2
        else:
            # A surviving big side continues as the same cluster.
            for side in (kid_l, kid_r):
                if big[side]:
                    stack.append((side, cluster))
                elif side < n:
                    children.append(side)
                else:
                    todo = [side]
                    while todo:
                        x = todo.pop()
                        if x < n:
                            children.append(x)
                        else:
                            todo += (left[x], right[x])
        run_cluster.append(cluster)
        run_node.append(node)
        run_length.append(len(children) - start)

    child = np.asarray(children, dtype=np.int64)
    run_length = np.asarray(run_length, dtype=np.int64)
    child_size = np.ones(child.size, dtype=np.int64)
    child_size[child > n] = size[heads]
    return CondensedTree(
        parent=np.repeat(np.asarray(run_cluster, dtype=np.int64),
                         run_length),
        child=child,
        lambda_val=np.repeat(lam[run_node], run_length),
        child_size=child_size,
        n_points=n,
    )
