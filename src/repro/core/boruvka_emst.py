"""The single-tree Borůvka driver (Figure 3 of the paper).

Runs the iteration

.. code-block:: none

    do {
        reduceLabels(...)                    # Optimization 1 prep
        computeUpperBounds(...)              # Optimization 2
        findComponentsOutgoingEdges(...)     # Algorithm 2, batched
        mergeComponents(...)
    } while (num_components > 1)

over a prebuilt BVH, accumulating the found MST edges and per-round
statistics.  Both optimizations are individually toggleable through
:class:`SingleTreeConfig` so the ablation benchmarks can quantify what the
paper motivates qualitatively ("critical on the later iterations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.bvh.bvh import BVH
from repro.errors import ConvergenceError
from repro.core.bounds import compute_upper_bounds
from repro.core.labels import reduce_labels
from repro.core.merge import merge_components
from repro.core.outgoing import find_components_outgoing_edges
from repro.kokkos.counters import CostCounters


@dataclass(frozen=True)
class SingleTreeConfig:
    """Algorithm switches.

    ``subtree_skipping`` / ``component_bounds`` toggle Optimizations 1 / 2.
    ``bits`` sets the Z-curve resolution of the BVH build (None = maximum;
    see the GeoLife discussion in Section 4.1); ``high_resolution`` uses
    double-width 128-bit codes instead — the paper's proposed GeoLife fix.
    """

    subtree_skipping: bool = True
    component_bounds: bool = True
    bits: Optional[int] = None
    high_resolution: bool = False
    #: Spatial index backing the traversals: "bvh" (linear BVH, the paper's
    #: choice) or "kdtree" (the generality claim of Section 1).
    tree_type: str = "bvh"
    #: Warm frontier seeding: each lane's previous-round candidate — when
    #: it survives the merge in a foreign component — becomes the next
    #: round's initial cutoff radius.  A valid admissible upper bound, so
    #: results are identical; later rounds prune to near-minimal work.
    warm_frontier: bool = True
    #: Z-curve window of the Optimization-2 bound scan (1 = the paper's
    #: adjacent-pairs scheme; wider windows tighten component bounds for
    #: a few extra vectorized passes).
    bound_window: int = 4


@dataclass
class RoundStats:
    """Work performed by one Borůvka iteration (for the ablation study)."""

    iteration: int
    components_before: int
    components_after: int
    distance_evals: int
    nodes_visited: int
    lane_steps: int
    warp_steps: int


@dataclass
class BoruvkaOutput:
    """Raw output of the Borůvka loop, in sorted-position space."""

    edges_u: np.ndarray
    edges_v: np.ndarray
    weights_sq: np.ndarray
    n_iterations: int
    rounds: List[RoundStats] = field(default_factory=list)


def run_boruvka(
    bvh: BVH,
    *,
    config: SingleTreeConfig = SingleTreeConfig(),
    core_sq: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
) -> BoruvkaOutput:
    """Execute Borůvka iterations until a single component remains.

    ``core_sq`` switches the metric to mutual reachability (squared core
    distances per sorted position).  Returned edges are sorted positions;
    :func:`repro.core.emst.emst` translates to caller indices.
    """
    n = bvh.n
    if n == 1:
        return BoruvkaOutput(
            edges_u=np.empty(0, dtype=np.int64),
            edges_v=np.empty(0, dtype=np.int64),
            weights_sq=np.empty(0, dtype=np.float64),
            n_iterations=0,
        )

    counters = counters if counters is not None else CostCounters()
    labels = np.arange(n, dtype=np.int64)
    node_labels = np.empty(bvh.n_nodes, dtype=np.int64)
    num_components = n

    out_u: List[np.ndarray] = []
    out_v: List[np.ndarray] = []
    out_w: List[np.ndarray] = []
    rounds: List[RoundStats] = []

    # Theoretical bound: components at least halve per round.
    max_iterations = int(np.ceil(np.log2(n))) + 2
    iteration = 0
    prev_pos: Optional[np.ndarray] = None
    prev_d: Optional[np.ndarray] = None
    while num_components > 1:
        if iteration >= max_iterations:
            raise ConvergenceError(
                f"Borůvka exceeded {max_iterations} iterations "
                f"({num_components} components left)")
        before = counters.copy()

        reduce_labels(bvh, labels, enabled=config.subtree_skipping,
                      out=node_labels, counters=counters)
        upper = compute_upper_bounds(bvh, labels,
                                     enabled=config.component_bounds,
                                     core_sq=core_sq,
                                     window=config.bound_window,
                                     counters=counters)
        extra_radius = None
        if config.warm_frontier and prev_pos is not None:
            # A lane's previous candidate still in a foreign component is
            # an admissible edge this round too — its distance is a valid
            # (often near-optimal) per-lane cutoff.
            target = np.maximum(prev_pos, 0)
            valid = (prev_pos >= 0) & (labels[target] != labels)
            extra_radius = np.where(valid, prev_d, np.inf)
        edges = find_components_outgoing_edges(
            bvh, labels, node_labels, upper,
            core_sq=core_sq, counters=counters,
            extra_radius_sq=extra_radius)
        prev_pos = edges.lane_position
        prev_d = edges.lane_distance_sq

        # Two components select the same edge only when they are a
        # mutual pair (Section 2's total-order argument); keep the copy
        # of the smaller label.  _finalize puts the edges in canonical
        # order.
        comp, target = edges.component, edges.target_component
        succ = np.empty(n, dtype=np.int64)
        succ[comp] = target
        keep = ~((succ[target] == comp) & (comp > target))
        source, dest = edges.source[keep], edges.target[keep]
        out_u.append(np.minimum(source, dest))
        out_v.append(np.maximum(source, dest))
        out_w.append(edges.weight_sq[keep])

        labels, new_count = merge_components(labels, n, edges,
                                             counters=counters)
        if new_count >= num_components:
            raise ConvergenceError(
                f"merge did not reduce components: {num_components} -> "
                f"{new_count}")
        delta = counters.copy()
        for name, val in before.as_dict().items():
            if name != "max_batch":
                setattr(delta, name, getattr(delta, name) - val)
        rounds.append(RoundStats(
            iteration=iteration,
            components_before=num_components,
            components_after=new_count,
            distance_evals=delta.distance_evals,
            nodes_visited=delta.nodes_visited,
            lane_steps=delta.lane_steps,
            warp_steps=delta.warp_steps,
        ))
        num_components = new_count
        iteration += 1

    edges_u = np.concatenate(out_u)
    edges_v = np.concatenate(out_v)
    weights_sq = np.concatenate(out_w)
    if edges_u.size != n - 1:
        raise ConvergenceError(
            f"produced {edges_u.size} edges for n={n}; expected {n - 1}")
    return BoruvkaOutput(edges_u=edges_u, edges_v=edges_v,
                         weights_sq=weights_sq,
                         n_iterations=iteration, rounds=rounds)
