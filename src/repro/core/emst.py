"""Public EMST API: :func:`emst` and :func:`mutual_reachability_emst`.

These are the library's main entry points, corresponding to the paper's
ArborX implementation.  Both return an :class:`EMSTResult` carrying the tree
edges (in the caller's point indexing), per-phase wall-clock timings and
per-phase work counters — everything the benchmark harness needs to price
the run on the simulated devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bvh.bvh import BVH, build_bvh
from repro.bvh.traversal import batched_knn
from repro.errors import InvalidInputError
from repro.core.boruvka_emst import (
    BoruvkaOutput,
    RoundStats,
    SingleTreeConfig,
    run_boruvka,
)
from repro.kokkos.counters import CostCounters
from repro.timing import PhaseTimer


@dataclass
class EMSTResult:
    """A Euclidean (or mutual-reachability) minimum spanning tree.

    ``edges`` is ``(n-1, 2)`` in the caller's indexing with
    ``edges[:, 0] < edges[:, 1]``; ``weights`` are metric distances (not
    squared).  ``phases`` maps phase name (``tree``, ``mst``, and ``core``
    for m.r.d. runs) to wall-clock seconds, ``counters`` to the measured
    work of that phase; ``rounds`` holds per-Borůvka-iteration statistics.
    """

    edges: np.ndarray
    weights: np.ndarray
    n_points: int
    dimension: int
    n_iterations: int
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, CostCounters] = field(default_factory=dict)
    rounds: List[RoundStats] = field(default_factory=list)
    #: Squared core distances in the caller's point order, set by
    #: :func:`mutual_reachability_emst` only (``None`` for Euclidean runs).
    #: Deliberately tree-independent (caller order, not BVH order) so the
    #: serving engine can cache it keyed by ``(points, k_pts)`` alone and
    #: inject it back through ``core_sq=`` to skip the ``core`` phase.
    #: Not part of the serialized payload.
    core_sq: Optional[np.ndarray] = field(default=None, repr=False,
                                          compare=False)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights."""
        return float(np.sum(self.weights))

    @property
    def total_counters(self) -> CostCounters:
        """All phases' work merged (for whole-run cost-model pricing)."""
        total = CostCounters()
        for c in self.counters.values():
            total.add(c)
        return total

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock seconds across phases."""
        return float(sum(self.phases.values()))


def _validate_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if points.shape[1] not in (2, 3):
        raise InvalidInputError(
            f"single-tree EMST supports d in (2, 3), got d={points.shape[1]}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")
    return points


def _finalize(points: np.ndarray, bvh: BVH, output: BoruvkaOutput,
              timer: PhaseTimer, counters: Dict[str, CostCounters]
              ) -> EMSTResult:
    # Translate sorted positions back to the caller's indexing and
    # canonicalize edge order (by weight, then endpoints) for stable output.
    u = bvh.order[output.edges_u]
    v = bvh.order[output.edges_v]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    w = np.sqrt(output.weights_sq)
    order = np.lexsort((hi, lo, w))
    edges = np.stack([lo[order], hi[order]], axis=1)
    return EMSTResult(
        edges=edges,
        weights=w[order],
        n_points=points.shape[0],
        dimension=points.shape[1],
        n_iterations=output.n_iterations,
        phases=timer.as_dict(),
        counters=counters,
        rounds=output.rounds,
    )


def _build_tree(points: np.ndarray, config: SingleTreeConfig,
                counters: CostCounters,
                order: Optional[np.ndarray] = None) -> BVH:
    """Construct the spatial index selected by ``config.tree_type``."""
    if config.tree_type == "bvh":
        return build_bvh(points, bits=config.bits,
                         high_resolution=config.high_resolution,
                         counters=counters, order=order)
    if config.tree_type == "kdtree":
        if config.bits is not None or config.high_resolution:
            raise InvalidInputError(
                "Morton-resolution options apply to the BVH backend only")
        from repro.core.kdtree_backend import kdtree_as_bvh
        return kdtree_as_bvh(points, counters=counters, order=order)
    raise InvalidInputError(
        f"unknown tree_type {config.tree_type!r}; use 'bvh' or 'kdtree'")


def build_tree(
    points: np.ndarray,
    *,
    config: SingleTreeConfig = SingleTreeConfig(),
    counters: Optional[CostCounters] = None,
    order: Optional[np.ndarray] = None,
) -> BVH:
    """Construct the spatial index :func:`emst` would build for ``points``.

    Exposed so callers that run several algorithms over the same point set
    can amortize the construction phase: pass the returned tree back
    through the ``bvh=`` parameter of :func:`emst` /
    :func:`mutual_reachability_emst` to skip their ``tree`` phase.
    ``order`` is the ``order`` of an earlier tree over the same points
    and ``config``; the build then skips its sort (or the kd-tree its
    split search) and returns that tree again.
    """
    points = _validate_points(points)
    return _build_tree(points, config,
                       counters if counters is not None else CostCounters(),
                       order)


def _check_injected_tree(points: np.ndarray, bvh: BVH,
                         check_coords: bool = True) -> None:
    """Validate that a caller-supplied tree actually indexes ``points``.

    The coordinate comparison is O(n*d); callers that already guarantee
    identity another way (the service executor builds the tree over the
    very points it passes) pass ``check_coords=False`` to keep only the
    O(1) shape check.
    """
    if bvh.n != points.shape[0] or bvh.dim != points.shape[1]:
        raise InvalidInputError(
            f"injected tree indexes {bvh.n} {bvh.dim}D points, "
            f"got {points.shape[0]} {points.shape[1]}D points")
    if check_coords and not np.array_equal(bvh.points, points[bvh.order]):
        raise InvalidInputError(
            "injected tree was built over different point coordinates")


def emst(
    points: np.ndarray,
    *,
    config: SingleTreeConfig = SingleTreeConfig(),
    bvh: Optional[BVH] = None,
    check_tree: bool = True,
) -> EMSTResult:
    """Euclidean minimum spanning tree of ``points`` (the paper's algorithm).

    ``bvh`` injects a precomputed tree from :func:`build_tree` (it must have
    been built over the same points and tree configuration); the ``tree``
    phase is then reported as zero seconds and zero work.  ``check_tree``
    controls whether the injected tree's coordinates are verified against
    ``points`` (an O(n*d) pass); disable only when identity is guaranteed
    by construction.

    Example
    -------
    >>> import numpy as np
    >>> result = emst(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    >>> result.edges.tolist()
    [[0, 1], [1, 2]]
    >>> result.weights.tolist()
    [1.0, 2.0]
    """
    points = _validate_points(points)
    timer = PhaseTimer()
    tree_counters = CostCounters()
    mst_counters = CostCounters()
    if bvh is None:
        with timer.phase("tree"):
            bvh = _build_tree(points, config, tree_counters)
    else:
        _check_injected_tree(points, bvh, check_tree)
        timer.add("tree", 0.0)
    with timer.phase("mst"):
        output = run_boruvka(bvh, config=config, counters=mst_counters)
    return _finalize(points, bvh, output, timer,
                     {"tree": tree_counters, "mst": mst_counters})


def mutual_reachability_emst(
    points: np.ndarray,
    k_pts: int,
    *,
    config: SingleTreeConfig = SingleTreeConfig(),
    bvh: Optional[BVH] = None,
    check_tree: bool = True,
    core_sq: Optional[np.ndarray] = None,
) -> EMSTResult:
    """MST under the mutual-reachability distance (HDBSCAN*, Section 4.5).

    ``d_mreach(u, v) = max(d_core(u), d_core(v), |u - v|)`` where
    ``d_core(u)`` is the distance to u's ``k_pts``-th nearest neighbor,
    *including the point itself*.  ``k_pts=1`` reduces to the Euclidean
    metric exactly.

    Adds a ``core`` phase (the paper's ``T_core``) computing all core
    distances with a batched k-NN over the same BVH.  ``core_sq`` injects
    precomputed *squared* core distances in the caller's point order (the
    ``core_sq`` attribute of an earlier result over the same points and
    ``k_pts``); the ``core`` phase is then reported as zero seconds and
    zero work, mirroring ``bvh=`` injection for the ``tree`` phase.  The
    caller is responsible for the values matching ``(points, k_pts)`` —
    the serving engine guarantees it by content fingerprint.
    """
    points = _validate_points(points)
    if k_pts < 1:
        raise InvalidInputError(f"k_pts must be >= 1, got {k_pts}")
    if k_pts > points.shape[0]:
        raise InvalidInputError(
            f"k_pts={k_pts} exceeds the number of points {points.shape[0]}")
    timer = PhaseTimer()
    tree_counters = CostCounters()
    core_counters = CostCounters()
    mst_counters = CostCounters()
    if bvh is None:
        with timer.phase("tree"):
            bvh = _build_tree(points, config, tree_counters)
    else:
        _check_injected_tree(points, bvh, check_tree)
        timer.add("tree", 0.0)
    if core_sq is None:
        with timer.phase("core"):
            knn = batched_knn(bvh, bvh.points, k_pts, counters=core_counters)
            core_sorted = knn.kth_distance_sq.copy()
        core_caller = np.empty(points.shape[0], dtype=np.float64)
        core_caller[bvh.order] = core_sorted
    else:
        core_caller = np.asarray(core_sq, dtype=np.float64)
        if core_caller.shape != (points.shape[0],):
            raise InvalidInputError(
                f"core_sq must have shape ({points.shape[0]},), "
                f"got {core_caller.shape}")
        if not np.all(np.isfinite(core_caller)):
            raise InvalidInputError(
                "core_sq contains non-finite values")
        timer.add("core", 0.0)
        # Fancy indexing copies, so the caller's array is never mutated.
        core_sorted = core_caller[bvh.order]
    with timer.phase("mst"):
        output = run_boruvka(bvh, config=config, core_sq=core_sorted,
                             counters=mst_counters)
    result = _finalize(points, bvh, output, timer,
                       {"tree": tree_counters, "core": core_counters,
                        "mst": mst_counters})
    result.core_sq = core_caller
    return result
