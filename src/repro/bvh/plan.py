"""Per-tree traversal artifacts: per-dimension coordinates and query plans.

The wavefront kernels compute every squared distance from
:class:`TreeCoords`, one contiguous 1D array per dimension for the points
and for the box corners (see
:func:`repro.geometry.distance.gathered_points_sq`).

Every Borůvka round — and the core-distance k-NN — issues the *same*
query batch: the indexed points themselves, one lane per sorted position.
A top-down traversal re-derives, round after round, the one thing that
never changes: the lane's root-to-leaf path and the geometry of the
subtrees hanging off it.

A :class:`QueryPlan` computes that once per tree.  For sorted position
``i`` it records, per path level, the *sibling* subtree hanging off the
``i``-th leaf's ancestor chain together with its point-box lower bound.
The path siblings plus the lane's own leaf partition the whole tree, so
seeding a traversal stack with exactly the admissible siblings (bound
``<=`` radius, component label differs) is equivalent to a full top-down
traversal — every pruning test the descent would have applied to those
nodes is applied by the seed filter or by the pop re-test, on identical
float values.  What disappears is the per-round rediscovery of the path:
each wavefront launch starts with one vectorized filter over the plan's
entries instead of popping through the top levels of the tree ``n``
lanes wide.  Rows are ragged (no padding), because path lengths of a
clustered tree vary widely: a height-59 tree over 10k points has 206k
real entries, where a dense ``(n, depth)`` table would have 600k cells.

Both artifacts are cached on the :class:`~repro.bvh.workspace.TraversalWorkspace`
keyed by the tree's identity token, so one copy serves all rounds of an
EMST run and the core-distance pass over the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bvh.bvh import BVH
from repro.geometry.distance import gathered_box_sq


class TreeCoords(NamedTuple):
    """Per-dimension copies of a tree's coordinates, ``(d, *)`` each.

    ``points[k]`` is dimension ``k`` of every sorted position, and
    ``lo[k]``/``hi[k]`` of every node's box; each row is contiguous.
    """

    points: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.points.nbytes + self.lo.nbytes + self.hi.nbytes


def tree_coords(bvh: BVH) -> TreeCoords:
    """The :class:`TreeCoords` of ``bvh``."""
    return TreeCoords(np.ascontiguousarray(bvh.points.T),
                      np.ascontiguousarray(bvh.lo.T),
                      np.ascontiguousarray(bvh.hi.T))


@dataclass
class QueryPlan:
    """Precomputed path siblings for the self-query batch of one tree.

    Row ``i`` — entries ``offsets[i]:offsets[i + 1]`` of ``nodes`` and
    ``dist`` — belongs to sorted position ``i``: its path siblings, root
    side first, then its own leaf, so a row is one longer than the lane's
    root path.  ``dist`` is each entry's point-box squared lower bound (0
    at the own leaf) and ``lane`` each entry's row.  Seeding pushes a
    row's admissible entries in order, so the deepest — nearest —
    subtrees end on top of the stack and are drained first.
    """

    nodes: np.ndarray
    dist: np.ndarray
    #: Row of every entry, for the seed filter's per-entry gathers.
    lane: np.ndarray
    offsets: np.ndarray
    #: Longest row (longest root path + own leaf): the seed filter is
    #: charged as a dense ``(n, depth)`` pass, the GPU kernel's shape.
    depth: int

    @property
    def build_box_evals(self) -> int:
        """Box distance evaluations performed to build the plan (charged
        to the counters of the kernel launch that built it)."""
        return int(self.nodes.size)

    @property
    def nbytes(self) -> int:
        return (self.nodes.nbytes + self.dist.nbytes + self.lane.nbytes
                + self.offsets.nbytes)


def build_query_plan(bvh: BVH, coords: TreeCoords) -> QueryPlan:
    """Compute the :class:`QueryPlan` of ``bvh`` (requires ``>=2`` leaves)."""
    n = bvh.n
    leaf_base = bvh.leaf_base
    parent = bvh.parent
    left = bvh.left
    # Leaf node id of every sorted position.
    block_of = np.searchsorted(bvh.leaf_start,
                               np.arange(n, dtype=np.int64), side="right") - 1
    own_leaf = leaf_base + block_of

    # Walk the ancestor chains in lock-step, leaf side first, collecting
    # the off-path sibling at each level; a lane drops out at the root.
    level_lanes = []
    level_nodes = []
    lanes = np.arange(n, dtype=np.int64)
    cur = own_leaf
    while True:
        par = parent[cur]
        live = par >= 0
        if not np.all(live):
            lanes = lanes[live]
            cur = cur[live]
            par = par[live]
        if lanes.size == 0:
            break
        level_lanes.append(lanes)
        level_nodes.append(left[par] + bvh.right[par] - cur)  # the other child
        cur = par

    row_len = np.bincount(np.concatenate(level_lanes), minlength=n) + 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_len, out=offsets[1:])
    leaf_slot = offsets[1:] - 1
    nodes = np.empty(int(offsets[-1]), dtype=np.int64)
    nodes[leaf_slot] = own_leaf
    for level, (lanes, sibling) in enumerate(zip(level_lanes, level_nodes)):
        nodes[leaf_slot[lanes] - 1 - level] = sibling  # root side first
    lane = np.repeat(np.arange(n, dtype=np.int64), row_len)
    dist = gathered_box_sq(coords.points, lane, coords.lo, coords.hi, nodes)
    return QueryPlan(nodes=nodes, dist=dist, lane=lane, offsets=offsets,
                     depth=int(row_len.max()))
