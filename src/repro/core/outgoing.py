"""``findComponentsOutgoingEdges``: phase one of each Borůvka iteration.

Every point (SIMT lane) runs the constrained nearest-neighbor traversal of
Algorithm 2 over the shared BVH, producing a candidate edge per point; a
segmented reduction then selects, for every component, the minimum
candidate under the tie-broken total order ``(weight, min, max)`` —
Figure 2 (c) and (d) of the paper.  The ``compiled`` engine reduces in
one C pass into per-component slots (``steps.c``); the ``reference``
engine sorts the candidates and takes each component's head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bvh import compiled
from repro.bvh.bvh import BVH
from repro.bvh.traversal import NearestResult, batched_nearest
from repro.errors import ConvergenceError
from repro.kokkos.counters import CostCounters


@dataclass
class OutgoingEdges:
    """Shortest outgoing edge per active component (sorted positions).

    ``component[k]`` selected the edge ``(source[k], target[k])`` with
    squared weight ``weight_sq[k]``.  ``target_component[k]`` is the label
    of the component the edge points to.

    ``lane_position`` / ``lane_distance_sq`` expose every lane's own
    nearest-other-component candidate (position -1 where none): the
    Borůvka driver feeds them back as the next round's initial cutoff
    radii (warm frontier seeding) — a candidate that stays in a foreign
    component after the merge upper-bounds the lane's next-round answer.
    """

    component: np.ndarray
    source: np.ndarray
    target: np.ndarray
    weight_sq: np.ndarray
    target_component: np.ndarray
    lane_position: Optional[np.ndarray] = None
    lane_distance_sq: Optional[np.ndarray] = None


def find_components_outgoing_edges(
    bvh: BVH,
    labels_sorted: np.ndarray,
    node_labels: np.ndarray,
    upper_bounds_sq: np.ndarray,
    *,
    core_sq: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
    extra_radius_sq: Optional[np.ndarray] = None,
) -> OutgoingEdges:
    """Shortest outgoing edge for every active component.

    ``extra_radius_sq`` tightens each lane's initial cutoff below the
    component bound (warm frontier seeding); it must be a valid per-lane
    upper bound on an *admissible* candidate, which keeps results exact
    (bound-inclusive pruning never discards a tied minimum).

    Raises :class:`~repro.errors.ConvergenceError` if any component finds no
    candidate — impossible for a complete distance graph, so it indicates
    corrupted labels or non-finite data.
    """
    init_radius = np.take(upper_bounds_sq, labels_sorted)
    if extra_radius_sq is not None:
        init_radius = np.minimum(init_radius, extra_radius_sq)

    # Tie-break keys use the caller's *original* vertex indices (Section 2
    # of the paper breaks ties "using indices of the vertices"), so the
    # produced MST is identical to the explicit-graph algorithms' output
    # under the same total order regardless of the Z-curve permutation.
    result = batched_nearest(
        bvh,
        bvh.points,
        query_labels=labels_sorted,
        node_labels=node_labels,
        init_radius_sq=init_radius,
        query_ids=bvh.order,
        point_ids=bvh.order,
        query_core_sq=core_sq,
        point_core_sq=core_sq,
        counters=counters,
    )

    if compiled.selected():
        (found, picked, active), rows = compiled.component_min_compiled(
            labels_sorted, result.position, result.distance_sq, result.key)
    else:
        (found, picked, active), rows = _component_min(labels_sorted, result)
    if found == 0:
        raise ConvergenceError("no outgoing edges found for any component")
    if counters is not None:
        counters.record_sort(found, bytes_per_item=24.0)
        counters.record_bulk(found, ops_per_item=2.0, bytes_per_item=16.0)
    if picked != active:
        raise ConvergenceError(
            "a component found no outgoing edge; labels are inconsistent")
    component, source, target, weight_sq, target_component = rows
    return OutgoingEdges(
        component=component,
        source=source,
        target=target,
        weight_sq=weight_sq,
        target_component=target_component,
        lane_position=result.position,
        lane_distance_sq=result.distance_sq,
    )


def _component_min(labels_sorted: np.ndarray, result: NearestResult):
    """The reference engine's selection: sort the lane candidates by
    ``(component, weight, key)`` and take each component's head.

    Returns ``(found, picked, active)`` — lanes with a candidate,
    components with one, distinct labels — and the rows ``(component,
    source, target, weight_sq, target_component)`` in ascending label
    order, as :func:`repro.bvh.compiled.component_min_compiled` does.
    """
    lanes = np.nonzero(result.found)[0]
    comp = labels_sorted[lanes]
    dist = result.distance_sq[lanes]
    key = result.key[lanes]

    order = np.lexsort((key, dist, comp))
    comp_sorted = comp[order]
    heads = np.ones(comp_sorted.size, dtype=bool)
    heads[1:] = comp_sorted[1:] != comp_sorted[:-1]
    pick = order[heads]

    target = result.position[lanes][pick]
    counts = (lanes.size, pick.size, np.unique(labels_sorted).size)
    return counts, (comp[pick], lanes[pick], target, dist[pick],
                    labels_sorted[target])
