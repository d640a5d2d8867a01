"""Linear bounding volume hierarchy (the ArborX substrate).

Construction follows the approach the paper inherits from ArborX
[Lebrun-Grandié et al. 2020]:

1. points are linearized along a Z-order space-filling curve
   (:mod:`repro.geometry.morton`),
2. the binary hierarchy over the sorted codes is produced with Karras'
   fully parallel algorithm [Karras 2012] (one node at a time in C, or
   vectorized over all internal nodes; a scalar reference implementation
   backs the tests),
3. bounding boxes are filled by a bottom-up refit pass.

Given ``n`` points the tree has ``n`` leaves, one point each in Z-curve
order, and ``n - 1`` internal nodes (``2n - 1`` total).  Node ids:
internal nodes are ``0 .. n-2`` with the root at 0; the leaf of sorted
position ``j`` is node ``n - 1 + j``.

Two traversals run over it, the two the paper needs: Algorithm 2's
constrained nearest neighbor and the k nearest neighbors behind the core
distances of Section 4.5 (:mod:`repro.bvh.traversal`).  Both are
*batched*: every query is a SIMT lane with its own traversal stack — the paper's one-thread-per-query
GPU kernels, instrumented for the cost model.  Two engines implement
them, identical in every answer and every work counter: the
``compiled`` engine (:mod:`repro.bvh.compiled` — the single-pop loop in
C, one lane at a time, the default wherever its library builds) and the
single-pop NumPy ``reference`` oracle (:mod:`repro.bvh.reference`, the
fallback without a C compiler); each call allocates its own stacks.
One process-wide switch selects the engine of both kernels, of steps 2
and 3 and of the Borůvka round steps of :mod:`repro.core`: C
(``steps.c``, built into the same library) under ``compiled``, NumPy
under ``reference``, with identical arrays and counters.
"""

from repro.bvh.build import karras_hierarchy, karras_hierarchy_scalar
from repro.bvh.bvh import BVH, build_bvh
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.bvh.traversal import (
    batched_knn,
    batched_nearest,
    get_default_engine,
    set_default_engine,
    traversal_engine,
)
from repro.bvh.validate import check_bvh_invariants

__all__ = [
    "BVH",
    "build_bvh",
    "karras_hierarchy",
    "karras_hierarchy_scalar",
    "bottom_up_schedule",
    "refit_bounds",
    "batched_nearest",
    "batched_knn",
    "check_bvh_invariants",
    "traversal_engine",
    "set_default_engine",
    "get_default_engine",
]
