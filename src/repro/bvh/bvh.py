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
    codes: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    schedule: List[np.ndarray] = field(default_factory=list)
    #: Low words of double-resolution Morton codes (None for 64-bit builds).
    codes_lo: Optional[np.ndarray] = None

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


def build_bvh(points: np.ndarray, *, bits: Optional[int] = None,
              high_resolution: bool = False,
              counters: Optional[CostCounters] = None) -> BVH:
    """Construct the LBVH for ``points`` (``(n, d)`` with ``d`` in (2, 3)).

    ``bits`` controls Z-curve resolution (see
    :func:`repro.geometry.morton.morton_encode`); lowering it reproduces the
    GeoLife pathology discussed in Section 4.1.  ``high_resolution=True``
    uses double-width (128-bit) Morton codes instead — the fix the paper
    proposes for that pathology (doubling sort cost, unchanged queries).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")
    if high_resolution and bits is not None:
        raise InvalidInputError("bits and high_resolution are exclusive")
    n, dim = points.shape

    if high_resolution:
        hi_codes, lo_codes = morton_encode_high(points)
        order = np.lexsort((np.arange(n), lo_codes, hi_codes))
        codes = hi_codes[order]
        codes_lo = lo_codes[order]
    else:
        codes_unsorted = morton_encode(points, bits)
        order = np.argsort(codes_unsorted, kind="stable")
        codes = codes_unsorted[order]
        codes_lo = None
    sorted_points = points[order]
    if counters is not None:
        counters.record_bulk(n, ops_per_item=10.0 * dim, bytes_per_item=8.0 * dim)
        counters.record_sort(n, bytes_per_item=24.0 if high_resolution
                             else 16.0)

    if n == 1:
        # Degenerate single-leaf tree: node 0 is the leaf and the root.
        return BVH(
            points=sorted_points,
            order=order,
            codes=codes,
            left=np.empty(0, dtype=np.int64),
            right=np.empty(0, dtype=np.int64),
            parent=np.array([-1], dtype=np.int64),
            lo=sorted_points.min(axis=0, keepdims=True),
            hi=sorted_points.max(axis=0, keepdims=True),
            schedule=[],
            codes_lo=codes_lo,
        )

    left, right, parent = karras_hierarchy(codes, counters,
                                           codes_lo=codes_lo)
    schedule = bottom_up_schedule(left, right, n)
    lo, hi = refit_bounds(sorted_points, left, right, schedule, counters)
    return BVH(points=sorted_points, order=order, codes=codes,
               left=left, right=right, parent=parent,
               lo=lo, hi=hi, schedule=schedule, codes_lo=codes_lo)
