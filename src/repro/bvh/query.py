"""Shared machinery of the batched traversal kernels.

Both traversal engines — :mod:`repro.bvh.compiled` and the NumPy
:mod:`repro.bvh.reference` kernels it is tested against — share their
result types, the tie-break key encoding and argument validation.  The
reference engine also takes its vectorized building blocks from here
(per-lane best updates, k-best merges); ``traverse.c`` mirrors each rule
it must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bvh.bvh import BVH
from repro.errors import InvalidInputError

#: Label value meaning "subtree spans multiple components" (never skipped).
INVALID_LABEL = -1

_KEY_SHIFT = np.uint64(32)
_NO_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


def pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total-order tie-break key for the undirected edge ``(a, b)``.

    Encodes ``(min, max)`` into one uint64 so lexicographic edge comparison
    becomes a single integer comparison.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << _KEY_SHIFT) | hi


@dataclass
class NearestResult:
    """Result of ``batched_nearest`` (positions are sorted positions)."""

    position: np.ndarray
    distance_sq: np.ndarray
    key: np.ndarray

    @property
    def found(self) -> np.ndarray:
        """Mask of queries that found any admissible neighbor."""
        return self.position >= 0


@dataclass
class KnnResult:
    """Result of ``batched_knn`` (positions are sorted positions).

    ``distance_sq[i, j]`` is the squared distance to the (j+1)-th nearest
    admissible point of query ``i``; unfilled slots are ``inf`` with
    position -1.
    """

    positions: np.ndarray
    distance_sq: np.ndarray

    @property
    def kth_distance_sq(self) -> np.ndarray:
        """Squared distance to the k-th neighbor (the core-distance column)."""
        return self.distance_sq[:, -1]


def validate_query_points(bvh: BVH, query_points: np.ndarray) -> np.ndarray:
    """Coerce and shape-check a query batch against the tree."""
    query_points = np.asarray(query_points, dtype=np.float64)
    if query_points.ndim != 2 or query_points.shape[1] != bvh.dim:
        raise InvalidInputError(
            f"query shape {query_points.shape} incompatible with d={bvh.dim}")
    return query_points


def update_nearest_best(
    best_sq: np.ndarray,
    best_pos: np.ndarray,
    best_key: Optional[np.ndarray],
    radius: np.ndarray,
    lane: np.ndarray,
    ppos: np.ndarray,
    d: np.ndarray,
    key: Optional[np.ndarray],
    n_sentinel: int,
) -> None:
    """Fold leaf candidates into the per-lane running best, in place.

    ``lane`` may repeat (one lane can contribute many candidates per
    step).  Implemented as scatter-min passes (``np.minimum.at`` has a
    fast inner loop) instead of a per-candidate sort:

    * **keyed** — minimizes the total order ``(distance, pair key)``
      exactly: the incumbent competes through its stored key whenever its
      distance still ties the new minimum, so results are independent of
      candidate order (the property the EMST tie-breaks rely on);
    * **unkeyed** — a strictly closer candidate wins, the incumbent keeps
      exact ties, and simultaneous equal-distance candidates resolve to
      the smallest sorted position (deterministic).

    ``radius`` is tightened to the winning distance, matching the
    shrinking-cutoff of Algorithm 2.  ``n_sentinel`` must exceed every
    valid position (used to reset dethroned incumbents).
    """
    prev = best_sq[lane]
    np.minimum.at(best_sq, lane, d)
    cur = best_sq[lane]
    win = d == cur
    if key is not None:
        stale = cur < prev
        if np.any(stale):
            best_key[lane[stale]] = _NO_KEY
        np.minimum.at(best_key, lane[win], key[win])
        final = win & (key == best_key[lane])
        best_pos[lane[final]] = ppos[final]
        radius[lane[final]] = np.minimum(radius[lane[final]], d[final])
        return
    win &= d < prev
    if np.any(win):
        lanes_w = lane[win]
        best_pos[lanes_w] = n_sentinel
        np.minimum.at(best_pos, lanes_w, ppos[win])
        radius[lanes_w] = np.minimum(radius[lanes_w], d[win])


def merge_k_best(kbest: np.ndarray, kpos: np.ndarray, lane: np.ndarray,
                 ppos: np.ndarray, d: np.ndarray, k: int) -> None:
    """Merge candidate ``(lane, ppos, d)`` triples into the k-best rows.

    Candidates may repeat lanes; they are bucketed to at most ``k`` best
    per lane (only ``k`` can enter), scattered into a rectangle and merged
    with one stable row-wise argsort — existing entries win ties.
    """
    order = np.lexsort((d, lane))
    lane = lane[order]
    ppos = ppos[order]
    d = d[order]
    rank = segment_ranks(lane)
    keep = rank < k
    lane = lane[keep]
    ppos = ppos[keep]
    d = d[keep]
    rank = rank[keep]
    row_ids, row_of = np.unique(lane, return_inverse=True)
    cand_d = np.full((row_ids.size, k), np.inf)
    cand_p = np.full((row_ids.size, k), -1, dtype=np.int64)
    cand_d[row_of, rank] = d
    cand_p[row_of, rank] = ppos
    merged_d = np.concatenate([kbest[row_ids], cand_d], axis=1)
    merged_p = np.concatenate([kpos[row_ids], cand_p], axis=1)
    sel = np.argsort(merged_d, axis=1, kind="stable")[:, :k]
    take = np.arange(row_ids.size)[:, None]
    kbest[row_ids] = merged_d[take, sel]
    kpos[row_ids] = merged_p[take, sel]


def segment_ranks(sorted_groups: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its (pre-sorted) group run."""
    size = sorted_groups.size
    if size == 0:
        return np.empty(0, dtype=np.int64)
    heads = np.ones(size, dtype=bool)
    heads[1:] = sorted_groups[1:] != sorted_groups[:-1]
    starts = np.nonzero(heads)[0]
    lengths = np.diff(np.append(starts, size))
    return np.arange(size, dtype=np.int64) - np.repeat(starts, lengths)
