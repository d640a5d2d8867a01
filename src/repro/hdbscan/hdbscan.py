"""End-to-end HDBSCAN* driver built on the single-tree m.r.d. EMST."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bvh.bvh import BVH
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import EMSTResult, mutual_reachability_emst
from repro.errors import InvalidInputError
from repro.hdbscan.condense import CondensedTree, condense_tree
from repro.hdbscan.single_linkage import single_linkage_tree
from repro.hdbscan.stability import extract_clusters
from repro.timing import PhaseTimer


@dataclass
class HDBSCANResult:
    """Clustering output plus every intermediate artifact.

    ``labels`` are 0-based cluster ids with -1 for noise; ``probabilities``
    in [0, 1]; ``emst`` is the mutual-reachability spanning tree result
    (with its phase counters, so HDBSCAN* runs can be repriced on the
    simulated devices like any EMST run).  ``phases`` holds the EMST's
    phases, then ``linkage`` (single linkage) and ``condense``
    (condensing and cluster extraction).
    """

    labels: np.ndarray
    probabilities: np.ndarray
    emst: EMSTResult
    linkage: np.ndarray
    condensed: CondensedTree
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of extracted clusters."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def noise_fraction(self) -> float:
        """Fraction of points labelled noise."""
        if self.labels.size == 0:
            return 0.0
        return float(np.mean(self.labels < 0))


def hdbscan(
    points: np.ndarray,
    *,
    min_cluster_size: int = 5,
    k_pts: int = 5,
    config: SingleTreeConfig = SingleTreeConfig(),
    bvh: Optional[BVH] = None,
    check_tree: bool = True,
    core_sq: Optional[np.ndarray] = None,
) -> HDBSCANResult:
    """HDBSCAN* clustering (Campello et al. 2015; McInnes et al. 2017).

    ``k_pts`` is the core-distance neighbor count (the paper's Section 4.5
    sweep parameter); ``min_cluster_size`` the condensation threshold.
    ``bvh`` injects a precomputed spatial index (see
    :func:`repro.core.emst.build_tree`), skipping the tree phase;
    ``core_sq`` injects precomputed squared core distances in the caller's
    point order (must match ``points`` and ``k_pts``), skipping the
    ``core`` phase the same way.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise InvalidInputError(
            f"clustering needs at least 2 points, got shape {points.shape}")
    n = points.shape[0]
    if min_cluster_size < 2:
        raise InvalidInputError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}")

    result = mutual_reachability_emst(points, k_pts, config=config, bvh=bvh,
                                      check_tree=check_tree, core_sq=core_sq)
    timer = PhaseTimer(dict(result.phases))
    with timer.phase("linkage"):
        linkage = single_linkage_tree(n, result.edges[:, 0],
                                      result.edges[:, 1], result.weights)
    with timer.phase("condense"):
        condensed = condense_tree(linkage, min_cluster_size)
        labels, probabilities = extract_clusters(condensed)
    return HDBSCANResult(
        labels=labels,
        probabilities=probabilities,
        emst=result,
        linkage=linkage,
        condensed=condensed,
        phases=timer.as_dict(),
    )
