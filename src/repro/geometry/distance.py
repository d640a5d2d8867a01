"""Squared-distance kernels.

All comparisons in the library use *squared* Euclidean distances: square
root is monotone, so nearest-neighbor and MST decisions are unaffected, and
skipping it matches what the real GPU kernels do.  The mutual-reachability
metric composes correctly in squared space because ``max`` commutes with the
monotone square (see :mod:`repro.core.mutual_reachability`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInputError


def points_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance between aligned point arrays ``a`` and ``b``.

    Shapes broadcast; for ``(k, d)`` inputs the result is ``(k,)``.

    >>> float(points_sq(np.array([0.0, 0.0]), np.array([3.0, 4.0])))
    25.0
    """
    diff = np.asarray(a) - np.asarray(b)
    return np.sum(diff * diff, axis=-1)


def gather_pair_sq(points: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared distances between points ``points[u]`` and ``points[v]``."""
    points = np.asarray(points)
    return points_sq(points[np.asarray(u)], points[np.asarray(v)])


def point_box_sq(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its axis-aligned box.

    ``p``, ``lo``, ``hi`` broadcast against each other; zero when the point
    is inside the box.  This is the lower bound used to prune BVH subtrees
    (Algorithm 2, line 9).

    >>> float(point_box_sq(np.array([2.0, 0.0]), np.array([0.0, 0.0]),
    ...                    np.array([1.0, 1.0])))
    1.0
    """
    p = np.asarray(p)
    d = np.maximum(np.asarray(lo) - p, 0.0)
    d = np.maximum(d, p - np.asarray(hi))
    return np.sum(d * d, axis=-1)


def gathered_points_sq(a: np.ndarray, ia: np.ndarray,
                       b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Squared distances between points ``a[:, ia]`` and ``b[:, ib]``.

    ``a`` and ``b`` are ``(d, n)`` coordinate arrays with contiguous rows
    (``np.ascontiguousarray(points.T)``) and ``ia``/``ib`` equal-shaped
    integer index arrays, so every term is a 1D gather instead of a
    ``(k, d)`` row gather.  The squared terms accumulate left to right
    from dimension 0, which is what :func:`points_sq`'s ``np.sum`` does
    over a last axis shorter than 8 (NumPy's pairwise summation falls
    back to a plain loop there), so the two agree bit for bit.  No
    ``einsum``/``dot``: a fused or reassociated sum drifts by an ULP and
    flips inclusive ``<=`` pruning.
    """
    acc = None
    for ak, bk in zip(a, b):
        g = np.take(ak, ia)
        g -= np.take(bk, ib)
        g *= g
        if acc is None:
            acc = g
        else:
            acc += g
    return acc


def box_box_sq(lo_a: np.ndarray, hi_a: np.ndarray,
               lo_b: np.ndarray, hi_b: np.ndarray) -> np.ndarray:
    """Squared minimum distance between aligned box arrays (0 if overlapping)."""
    gap = np.maximum(np.asarray(lo_b) - np.asarray(hi_a), 0.0)
    gap = np.maximum(gap, np.asarray(lo_a) - np.asarray(hi_b))
    return np.sum(gap * gap, axis=-1)


def all_pairs_sq(points: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` squared-distance matrix (naive baselines only).

    Guarded against accidental use on large inputs — the whole point of the
    paper is to avoid materializing the distance graph.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InvalidInputError(f"expected (n, d) points, got {points.shape}")
    n = points.shape[0]
    if n > 20_000:
        raise InvalidInputError(
            f"refusing to materialize a {n}x{n} distance matrix; "
            "use the tree-based algorithms for large inputs")
    # Computed as sum((a-b)^2) — NOT the |a|^2+|b|^2-2ab dot trick — so the
    # rounding matches :func:`points_sq` bit for bit.  The oracles break
    # distance ties exactly like the tree algorithms only because every
    # implementation evaluates distances with the same expression.
    d2 = np.empty((n, n), dtype=np.float64)
    block = max(1, 2_000_000 // max(n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = points[start:stop, None, :] - points[None, :, :]
        d2[start:stop] = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, 0.0)
    return d2
