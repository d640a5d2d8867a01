"""The :class:`BVH` container and its construction pipeline.

``build_bvh`` performs the three LBVH construction stages (Z-curve sort,
Karras hierarchy, bottom-up refit) and records their work into a counter
set, so the "tree" phase of every benchmark reflects measured construction
cost — this is the paper's ``T_tree`` (Figure 8b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import InvalidInputError
from repro.geometry.morton import morton_encode, morton_encode_high
from repro.bvh.build import karras_hierarchy
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.kokkos.counters import CostCounters


@dataclass
class BVH:
    """A linear bounding volume hierarchy over a point set.

    Points are stored in Z-curve order internally (``points``); ``order``
    maps sorted position to the caller's original index
    (``points[i] == original_points[order[i]]``).  All traversal results are
    expressed in *sorted positions*; callers translate with ``order``.

    Each leaf holds one point.  Node ids: internal nodes are ``0..n-2``
    (root 0) and the leaf of sorted position ``j`` is node ``n - 1 + j``.
    ``left``/``right`` are children of internal nodes; ``parent`` covers
    all ``2n - 1`` nodes.
    """

    points: np.ndarray
    order: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    schedule: List[np.ndarray] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of points."""
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Spatial dimension."""
        return self.points.shape[1]

    @property
    def leaf_base(self) -> int:
        """Node id of the leaf of sorted position 0."""
        return self.n - 1

    @property
    def n_nodes(self) -> int:
        """Total node count, ``2n - 1``."""
        return 2 * self.n - 1

    @property
    def height(self) -> int:
        """Number of internal levels (max stack depth a traversal needs)."""
        return len(self.schedule)


def check_order(order: np.ndarray, n: int) -> np.ndarray:
    """``order`` as an int64 permutation of ``range(n)``, the builders'
    check of a cached tree's order; anything else raises
    :class:`InvalidInputError`."""
    order = np.asarray(order)
    if order.shape != (n,) or order.dtype.kind not in "iu":
        raise InvalidInputError(
            f"tree order must be {n} integers, got {order.dtype} "
            f"{order.shape}")
    if order.min() < 0 or order.max() >= n:
        raise InvalidInputError("tree order entry out of range")
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise InvalidInputError("tree order repeats an entry")
    return order.astype(np.int64, copy=False)


def build_bvh(points: np.ndarray, *, bits: Optional[int] = None,
              high_resolution: bool = False,
              counters: Optional[CostCounters] = None,
              order: Optional[np.ndarray] = None) -> BVH:
    """Construct the LBVH for ``points`` (``(n, d)`` with ``d`` in (2, 3)).

    ``bits`` controls Z-curve resolution (see
    :func:`repro.geometry.morton.morton_encode`); lowering it reproduces the
    GeoLife pathology discussed in Section 4.1.  ``high_resolution=True``
    uses double-width (128-bit) Morton codes instead — the fix the paper
    proposes for that pathology (doubling sort cost, unchanged queries).

    ``order`` is the ``order`` of an earlier build over the same points
    and options: the sort is skipped and everything else runs, so the
    tree is that build's, array for array.  An order that is not a
    permutation of the points, or that does not sort their codes with
    ties by index as the sort does, raises :class:`InvalidInputError`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if high_resolution and bits is not None:
        raise InvalidInputError("bits and high_resolution are exclusive")
    n, dim = points.shape

    if high_resolution:
        codes, codes_lo = morton_encode_high(points)
    else:
        codes, codes_lo = morton_encode(points, bits), None
    cached = order is not None
    if cached:
        order = check_order(order, n)
    elif codes_lo is None:
        order = np.argsort(codes, kind="stable")
    else:
        order = np.lexsort((np.arange(n), codes_lo, codes))
    codes = codes[order]
    if codes_lo is not None:
        codes_lo = codes_lo[order]
    if cached:
        # Karras rejects unsorted codes; equal ones must keep index order.
        tie = codes[:-1] == codes[1:]
        if codes_lo is not None:
            tie &= codes_lo[:-1] == codes_lo[1:]
        if np.any(tie & (order[:-1] > order[1:])):
            raise InvalidInputError("tree order breaks a tie out of order")
    sorted_points = np.take(points, order, axis=0)  # ~2x points[order]
    if counters is not None:
        counters.record_bulk(n, ops_per_item=10.0 * dim, bytes_per_item=8.0 * dim)
        counters.record_sort(n, bytes_per_item=24.0 if high_resolution
                             else 16.0)

    if n == 1:
        # Degenerate single-leaf tree: node 0 is the leaf and the root.
        return BVH(
            points=sorted_points,
            order=order,
            left=np.empty(0, dtype=np.int64),
            right=np.empty(0, dtype=np.int64),
            parent=np.array([-1], dtype=np.int64),
            lo=sorted_points.min(axis=0, keepdims=True),
            hi=sorted_points.max(axis=0, keepdims=True),
            schedule=[],
        )

    left, right, parent = karras_hierarchy(codes, counters,
                                           codes_lo=codes_lo)
    schedule = bottom_up_schedule(left, right, n)
    lo, hi = refit_bounds(sorted_points, left, right, schedule, counters)
    return BVH(points=sorted_points, order=order,
               left=left, right=right, parent=parent,
               lo=lo, hi=hi, schedule=schedule)
