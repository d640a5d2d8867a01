"""Structural invariants of a built BVH (used by tests and debug assertions).

Checks, for trees with ``n >= 2`` points (one per leaf):

* every internal node has exactly two distinct children, every non-root node
  exactly one parent, and the root is node 0 with parent -1;
* the children arrays describe a tree covering all ``2n - 1`` nodes;
* each internal node's box equals the union of its children's boxes
  (so parent boxes contain child boxes);
* every leaf box is the degenerate box of its point;
* the leaves reachable from any internal node form a contiguous range of
  sorted positions (the Karras range property the EMST label reduction
  relies on).
"""

from __future__ import annotations

import numpy as np

from repro.bvh.bvh import BVH


def check_bvh_invariants(bvh: BVH) -> None:
    """Raise ``AssertionError`` describing the first violated invariant."""
    n = bvh.n
    if n == 1:
        assert bvh.n_nodes == 1
        assert np.array_equal(bvh.lo, bvh.points)
        assert np.array_equal(bvh.hi, bvh.points)
        return

    n_internal = n - 1
    leaf_base = bvh.leaf_base
    left, right, parent = bvh.left, bvh.right, bvh.parent

    assert left.shape == (n_internal,), "left children array shape"
    assert right.shape == (n_internal,), "right children array shape"
    assert parent.shape == (2 * n - 1,), "parent array shape"
    assert parent[0] == -1, "root parent must be -1"

    children = np.concatenate([left, right])
    assert children.min() >= 1 or (children.min() >= 0 and 0 not in children), \
        "root must not be a child"
    assert 0 not in children, "root must not be a child"
    assert children.max() <= 2 * n - 2, "child id out of range"
    unique, counts = np.unique(children, return_counts=True)
    assert unique.size == 2 * n - 2, "every non-root node appears as a child"
    assert np.all(counts == 1), "each node has exactly one parent"

    # parent[] consistency with the children arrays.
    internal_ids = np.arange(n_internal)
    assert np.array_equal(parent[left], internal_ids), "parent(left) mismatch"
    assert np.array_equal(parent[right], internal_ids), "parent(right) mismatch"

    # Bounding boxes: unions and degenerate leaf boxes.
    assert np.array_equal(bvh.lo[leaf_base:], bvh.points), "leaf lo"
    assert np.array_equal(bvh.hi[leaf_base:], bvh.points), "leaf hi"
    want_lo = np.minimum(bvh.lo[left], bvh.lo[right])
    want_hi = np.maximum(bvh.hi[left], bvh.hi[right])
    assert np.array_equal(bvh.lo[:n_internal], want_lo), "internal lo union"
    assert np.array_equal(bvh.hi[:n_internal], want_hi), "internal hi union"

    # Leaf-range contiguity per internal node.
    lo_leaf, hi_leaf = _leaf_ranges(bvh)
    sizes = _subtree_sizes(bvh)
    assert np.all(hi_leaf - lo_leaf + 1 == sizes), \
        "subtree leaves are not a contiguous sorted range"
    assert lo_leaf[0] == 0 and hi_leaf[0] == n - 1, "root spans all leaves"


def _leaf_ranges(bvh: BVH):
    """(min, max) sorted position under each internal node."""
    n = bvh.n
    leaf_base = bvh.leaf_base
    lo = np.full(n - 1, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(n - 1, -1, dtype=np.int64)

    def child_range(child):
        is_leaf = child >= leaf_base
        c_lo = np.where(is_leaf, child - leaf_base,
                        lo[np.minimum(child, n - 2)])
        c_hi = np.where(is_leaf, child - leaf_base,
                        hi[np.minimum(child, n - 2)])
        return c_lo, c_hi

    for ids in bvh.schedule:
        l_lo, l_hi = child_range(bvh.left[ids])
        r_lo, r_hi = child_range(bvh.right[ids])
        lo[ids] = np.minimum(l_lo, r_lo)
        hi[ids] = np.maximum(l_hi, r_hi)
    return lo, hi


def _subtree_sizes(bvh: BVH) -> np.ndarray:
    """Number of leaves under each internal node."""
    n = bvh.n
    leaf_base = bvh.leaf_base
    counts = np.zeros(n - 1, dtype=np.int64)

    def child_count(child):
        is_leaf = child >= leaf_base
        return np.where(is_leaf, 1, counts[np.minimum(child, n - 2)])

    for ids in bvh.schedule:
        counts[ids] = child_count(bvh.left[ids]) + child_count(bvh.right[ids])
    return counts
