"""The :class:`BVH` container and its construction pipeline.

``build_bvh`` performs the three LBVH construction stages (Z-curve sort,
Karras hierarchy, bottom-up refit) and records their work into a counter
set, so the "tree" phase of every benchmark reflects measured construction
cost — this is the paper's ``T_tree`` (Figure 8b).

Leaves may be *blocked*: with ``leaf_size = L > 1`` each leaf covers up to
``L`` consecutive Z-curve positions, shrinking the hierarchy to
``ceil(n / L)`` leaves.  Traversals then evaluate a whole block of exact
distances per leaf visit, which amortizes per-step traversal overhead —
the standard wide-traversal remedy for SIMT hardware, and the blocked-leaf
counterpart of ArborX's bulk search.
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

    Leaves are *blocks* of consecutive sorted positions: leaf ``j`` covers
    ``leaf_start[j] .. leaf_start[j] + leaf_count[j] - 1``.  The classic
    one-point-per-leaf tree is the ``leaf_size == 1`` special case
    (``leaf_start == arange(n)``, all counts 1).

    Node ids: with ``m`` leaves, internal nodes are ``0..m-2`` (root 0) and
    leaf ``j`` is node ``m - 1 + j``.  ``left``/``right`` are children of
    internal nodes; ``parent`` covers all ``2m - 1`` nodes.
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
    #: First sorted position covered by each leaf (``(m,)`` int64).
    #: ``None`` means one point per leaf (filled in ``__post_init__``).
    leaf_start: Optional[np.ndarray] = None
    #: Number of points covered by each leaf (``(m,)`` int64).
    leaf_count: Optional[np.ndarray] = None
    #: The build-time blocking factor (max points per leaf).
    leaf_size: int = 1

    def __post_init__(self) -> None:
        if self.leaf_start is None or self.leaf_count is None:
            n = self.points.shape[0]
            self.leaf_start = np.arange(n, dtype=np.int64)
            self.leaf_count = np.ones(n, dtype=np.int64)
            self.leaf_size = 1

    @property
    def n(self) -> int:
        """Number of points."""
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Spatial dimension."""
        return self.points.shape[1]

    @property
    def n_leaves(self) -> int:
        """Number of leaves (``ceil(n / leaf_size)`` blocks)."""
        return self.leaf_start.shape[0]

    @property
    def leaf_base(self) -> int:
        """Node id of leaf block 0."""
        return self.n_leaves - 1

    @property
    def n_nodes(self) -> int:
        """Total node count, ``2 * n_leaves - 1``."""
        return 2 * self.n_leaves - 1

    @property
    def height(self) -> int:
        """Number of internal levels (max stack depth a traversal needs)."""
        return len(self.schedule)

    def is_leaf(self, node: np.ndarray) -> np.ndarray:
        """Boolean mask: which node ids are leaves."""
        return np.asarray(node) >= self.leaf_base

    def leaf_position(self, node: np.ndarray) -> np.ndarray:
        """Leaf block index of leaf node ids."""
        return np.asarray(node) - self.leaf_base


def leaf_blocks(n: int, leaf_size: int) -> np.ndarray:
    """First sorted position of each leaf block (the last may be short)."""
    if leaf_size < 1:
        raise InvalidInputError(f"leaf_size must be >= 1, got {leaf_size}")
    return np.arange(0, n, leaf_size, dtype=np.int64)


def build_bvh(points: np.ndarray, *, bits: Optional[int] = None,
              high_resolution: bool = False,
              leaf_size: int = 1,
              counters: Optional[CostCounters] = None) -> BVH:
    """Construct the LBVH for ``points`` (``(n, d)`` with ``d`` in (2, 3)).

    ``bits`` controls Z-curve resolution (see
    :func:`repro.geometry.morton.morton_encode`); lowering it reproduces the
    GeoLife pathology discussed in Section 4.1.  ``high_resolution=True``
    uses double-width (128-bit) Morton codes instead — the fix the paper
    proposes for that pathology (doubling sort cost, unchanged queries).
    ``leaf_size`` blocks up to that many consecutive Z-curve positions into
    one leaf (1 reproduces the classic one-point-per-leaf tree).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")
    if high_resolution and bits is not None:
        raise InvalidInputError("bits and high_resolution are exclusive")
    if leaf_size < 1:
        raise InvalidInputError(f"leaf_size must be >= 1, got {leaf_size}")
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

    leaf_start = leaf_blocks(n, leaf_size)
    leaf_count = np.diff(np.append(leaf_start, n))
    m = leaf_start.shape[0]

    if m == 1:
        # Degenerate single-leaf tree: node 0 is the leaf and the root.
        lo = sorted_points.min(axis=0, keepdims=True)
        hi = sorted_points.max(axis=0, keepdims=True)
        return BVH(
            points=sorted_points,
            order=order,
            codes=codes,
            left=np.empty(0, dtype=np.int64),
            right=np.empty(0, dtype=np.int64),
            parent=np.array([-1], dtype=np.int64),
            lo=lo,
            hi=hi,
            schedule=[],
            codes_lo=codes_lo,
            leaf_start=leaf_start,
            leaf_count=leaf_count,
            leaf_size=leaf_size,
        )

    # The hierarchy is built over one representative code per block (the
    # block's first position); the per-position index tie-break therefore
    # becomes a per-block tie-break, and duplicates stay well-formed.
    block_codes = codes[leaf_start]
    block_codes_lo = codes_lo[leaf_start] if codes_lo is not None else None
    left, right, parent = karras_hierarchy(block_codes, counters,
                                           codes_lo=block_codes_lo)
    schedule = bottom_up_schedule(left, right, m)
    # One-point leaves take their boxes from the points without a
    # reduction (the same bits).
    lo, hi = refit_bounds(sorted_points, left, right, schedule, counters,
                          leaf_start=leaf_start if m < n else None)
    return BVH(points=sorted_points, order=order, codes=codes,
               left=left, right=right, parent=parent,
               lo=lo, hi=hi, schedule=schedule, codes_lo=codes_lo,
               leaf_start=leaf_start, leaf_count=leaf_count,
               leaf_size=leaf_size)
