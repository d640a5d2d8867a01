"""Single-linkage dendrogram from MST edges.

Sorting the MST edges by weight and merging with union-find yields exactly
the single-linkage hierarchy of the underlying metric (here: mutual
reachability).  Output follows the SciPy linkage convention: row ``i``
merges clusters ``Z[i,0]`` and ``Z[i,1]`` at distance ``Z[i,2]`` into a new
cluster with id ``n + i`` and size ``Z[i,3]``.

The merge loop runs over plain Python lists: reading a NumPy array one
element at a time costs several times more than a list index, and the
loop is sequential by nature (each merge depends on the previous ones).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInputError


def single_linkage_tree(n: int, u: np.ndarray, v: np.ndarray,
                        w: np.ndarray) -> np.ndarray:
    """SciPy-convention linkage matrix from a spanning tree's edges.

    Edges merge in stable weight order, so ties keep their input order.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if u.shape != v.shape or u.shape != w.shape:
        raise InvalidInputError("edge arrays must have matching shapes")
    if u.size != n - 1:
        raise InvalidInputError(
            f"spanning tree of {n} points needs {n - 1} edges, got {u.size}")
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise InvalidInputError(f"edge endpoints must lie in [0, {n})")
    if not np.isfinite(w).all():
        raise InvalidInputError("edge weights must be finite")

    order = np.argsort(w, kind="stable")
    # Union-find with path halving and union by size.  ``cluster_of[r]``
    # is the dendrogram id of root ``r``'s set: the point itself until
    # its first merge, then the id of the set's latest merge row.
    parent = list(range(n))
    size = [1] * n
    cluster_of = list(range(n))
    lo, hi, merged = [0] * (n - 1), [0] * (n - 1), [0] * (n - 1)
    row = 0
    for a, b in zip(u[order].tolist(), v[order].tolist()):
        # Path halving: the right side is read once, then ``parent[a]``
        # (old ``a``) and ``a`` are assigned in that order.
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            raise InvalidInputError("edges contain a cycle")
        ca, cb = cluster_of[a], cluster_of[b]
        if ca < cb:
            lo[row], hi[row] = ca, cb
        else:
            lo[row], hi[row] = cb, ca
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] = merged[row] = size[a] + size[b]
        cluster_of[a] = n + row
        row += 1

    Z = np.empty((n - 1, 4), dtype=np.float64)
    Z[:, 0] = lo
    Z[:, 1] = hi
    Z[:, 2] = w[order]
    Z[:, 3] = merged
    return Z
