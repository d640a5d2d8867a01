"""Karras' fully parallel LBVH hierarchy construction.

Given Morton codes sorted along the Z-curve, every internal node's vertex
range, split position and children can be computed *independently* — this is
what makes the construction GPU-friendly [Karras 2012].  The ``compiled``
engine runs each node's searches in C (``steps.c``); the ``reference``
engine runs them for all ``n - 1`` internal nodes in lock-step NumPy
passes (``O(log n)`` passes of ``O(n)`` work).  Both give the same arrays.

Duplicate Morton codes are handled by the index tie-break inside
:func:`repro.geometry.morton.common_prefix_length`, which conceptually
appends the leaf index to the code — deltas are then strictly decreasing
away from any position and the produced hierarchy is a well-formed binary
tree for any input, including all-identical points.

Node id convention (shared across the package): internal nodes ``0..n-2``
(root 0), leaf for sorted position ``i`` is node ``n - 1 + i``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.geometry.morton import common_prefix_length, common_prefix_length_high
from repro.kokkos.counters import CostCounters


def karras_hierarchy(
    codes: np.ndarray, counters: Optional[CostCounters] = None,
    *, codes_lo: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children and parents of the LBVH over sorted ``codes``.

    Returns ``(left, right, parent)``:

    * ``left``/``right``: node ids of the children of internal node ``t``,
      for ``t`` in ``0..n-2`` (ids ``>= n-1`` denote leaves).
    * ``parent``: parent node id for all ``2n-1`` nodes (root's is -1).

    ``codes_lo`` enables double-width (128-bit) codes: ``codes`` then holds
    the high word and the pair must be lexicographically sorted — the
    paper's proposed fix for Z-curve under-resolution (Section 4.1).

    Requires ``n >= 2``; callers special-case single-point inputs.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    n = codes.shape[0]
    if n < 2:
        raise InvalidInputError("hierarchy construction requires n >= 2")
    if codes_lo is None:
        if np.any(codes[:-1] > codes[1:]):
            raise InvalidInputError("Morton codes must be sorted")
    else:
        codes_lo = np.asarray(codes_lo, dtype=np.uint64)
        if codes_lo.shape != codes.shape:
            raise InvalidInputError("hi/lo code arrays must match in shape")
        order_ok = (codes[:-1] < codes[1:]) | (
            (codes[:-1] == codes[1:]) & (codes_lo[:-1] <= codes_lo[1:]))
        if not np.all(order_ok):
            raise InvalidInputError("(hi, lo) codes must be lexsorted")

    from repro.bvh import compiled  # compiled -> query -> bvh -> here
    if compiled.selected():
        left, right, parent = compiled.karras_compiled(codes, codes_lo)
    else:
        left, right, parent = _karras_vectorized(codes, codes_lo)

    if counters is not None:
        # One thread per internal node, O(log n) probes each.
        log_n = max(int(np.ceil(np.log2(n))), 1)
        counters.record_bulk(n - 1, ops_per_item=12.0 * log_n,
                             bytes_per_item=48.0)
    return left, right, parent


def _karras_vectorized(codes: np.ndarray, codes_lo: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference engine's :func:`karras_hierarchy`: every internal
    node's searches in lock-step NumPy passes."""
    n = codes.shape[0]
    if codes_lo is None:
        def _delta(c, i, j):
            return common_prefix_length(c, i, j)
    else:
        def _delta(c, i, j):
            return common_prefix_length_high(c, codes_lo, i, j)

    t = np.arange(n - 1, dtype=np.int64)

    # Direction of each node's range: towards the neighbour with the longer
    # common prefix.  The index tie-break guarantees the deltas differ.
    d_plus = _delta(codes, t, t + 1)
    d_minus = _delta(codes, t, t - 1)
    direction = np.where(d_plus > d_minus, 1, -1).astype(np.int64)
    delta_min = np.where(direction == 1, d_minus, d_plus)

    # Exponential search for an upper bound on the range length.
    lmax = np.full(n - 1, 2, dtype=np.int64)
    active = _delta(codes, t, t + lmax * direction) > delta_min
    while np.any(active):
        lmax[active] *= 2
        active = _delta(codes, t, t + lmax * direction) > delta_min
    # Binary search for the exact range length l.
    length = np.zeros(n - 1, dtype=np.int64)
    step = lmax // 2
    while np.any(step >= 1):
        live = step >= 1
        probe = length + np.where(live, step, 0)
        ok = live & (_delta(codes, t, t + probe * direction) > delta_min)
        length = np.where(ok, probe, length)
        step //= 2
    other_end = t + length * direction

    # Binary search for the split position inside [t, other_end].
    delta_node = _delta(codes, t, other_end)
    split_offset = np.zeros(n - 1, dtype=np.int64)
    step = (length + 1) // 2
    done = length == 0  # cannot happen, but keeps the loop well-defined
    while True:
        probe = split_offset + step
        ok = ~done & (_delta(codes, t, t + probe * direction) > delta_node)
        split_offset = np.where(ok, probe, split_offset)
        finished = step <= 1
        if np.all(finished | done):
            break
        step = np.where(finished, step, (step + 1) // 2)
        # Once a lane's step reaches 1 it has performed its last probe.
        done = done | finished

    gamma = t + split_offset * direction + np.minimum(direction, 0)

    range_lo = np.minimum(t, other_end)
    range_hi = np.maximum(t, other_end)
    leaf_base = n - 1
    left = np.where(range_lo == gamma, leaf_base + gamma, gamma)
    right = np.where(range_hi == gamma + 1, leaf_base + gamma + 1, gamma + 1)

    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    parent[left] = t
    parent[right] = t
    return left, right, parent


def karras_hierarchy_scalar(codes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference per-node implementation of :func:`karras_hierarchy`.

    Follows Karras' pseudo-code literally, one internal node at a time.
    Used only by the test suite to validate both engines' construction.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    n = codes.shape[0]
    if n < 2:
        raise InvalidInputError("hierarchy construction requires n >= 2")

    def delta(i: int, j: int) -> int:
        if j < 0 or j >= n:
            return -1
        return int(common_prefix_length(codes, np.array([i]),
                                        np.array([j]))[0])

    left = np.zeros(n - 1, dtype=np.int64)
    right = np.zeros(n - 1, dtype=np.int64)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    for i in range(n - 1):
        d = 1 if delta(i, i + 1) > delta(i, i - 1) else -1
        delta_min = delta(i, i - d)
        lmax = 2
        while delta(i, i + lmax * d) > delta_min:
            lmax *= 2
        length = 0
        step = lmax // 2
        while step >= 1:
            if delta(i, i + (length + step) * d) > delta_min:
                length += step
            step //= 2
        j = i + length * d
        delta_node = delta(i, j)
        s = 0
        step = (length + 1) // 2
        while True:
            if delta(i, i + (s + step) * d) > delta_node:
                s += step
            if step <= 1:
                break
            step = (step + 1) // 2
        gamma = i + s * d + min(d, 0)
        lo, hi = min(i, j), max(i, j)
        left[i] = (n - 1) + gamma if lo == gamma else gamma
        right[i] = (n - 1) + gamma + 1 if hi == gamma + 1 else gamma + 1
        parent[left[i]] = i
        parent[right[i]] = i
    return left, right, parent
