"""Batched BVH traversals: the public kernel API and engine dispatch.

Every query owns a traversal stack and walks the tree on its own —
Algorithm 2 of the paper, which ArborX runs as one GPU thread per query.
Two engines implement the kernels:

* ``"compiled"`` (:mod:`repro.bvh.compiled`) — the reference loop as C
  (``traverse.c``), one lane at a time, built once by the system compiler
  and called through :mod:`ctypes`;
* ``"reference"`` (:mod:`repro.bvh.reference`) — the single-pop NumPy
  lock-step loop, kept as the oracle the compiled engine is tested
  against and as the engine for hosts without a C compiler.

Both give the same answer to every query and the same count in every
work counter.  Every kernel call, the LBVH build and the Borůvka round
steps run on the resolved engine (:func:`repro.bvh.compiled.selected`).

The process default is resolved once, on first use: ``"compiled"`` when
its library builds and loads, else ``"reference"``.  Select another
process-wide with :func:`set_default_engine` or the
:func:`traversal_engine` context manager.

The nearest-neighbor kernel supports every constraint the single-tree EMST
algorithm needs:

* **component constraint / subtree skipping** — ``node_labels`` per tree
  node (a node carries a component label when its whole subtree is in one
  component, else ``INVALID_LABEL``; a leaf carries its point's label); a
  child whose label equals the query's label is skipped (Optimization 1,
  Section 3);
* **initial cutoff radius** — per-query squared radius (Optimization 2);
* **mutual-reachability metric** — per-point core distances fold into leaf
  evaluations and subtree lower bounds (Section 3, "Non-Euclidean metrics");
* **index tie-breaking** — equal-weight candidates compare by the
  ``(min(u,v), max(u,v))`` vertex pair (Section 2), so Borůvka merges are
  provably cycle-free even with duplicate distances.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.bvh.bvh import BVH
from repro.bvh import compiled as _compiled
from repro.bvh import reference as _reference
from repro.bvh.query import (  # noqa: F401 — public re-exports
    INVALID_LABEL,
    KnnResult,
    NearestResult,
    pair_keys,
)
from repro.errors import InvalidInputError
from repro.kokkos.counters import CostCounters

#: The engines :func:`set_default_engine` accepts.
ENGINES = ("compiled", "reference")

#: The process default; ``None`` until :func:`get_default_engine`
#: resolves it.
_default_engine: Optional[str] = None


def set_default_engine(engine: str) -> str:
    """Set the process-wide traversal engine; returns the previous one.

    ``"compiled"`` is refused when its library cannot be loaded.
    """
    global _default_engine
    if engine not in ENGINES:
        raise InvalidInputError(
            f"unknown traversal engine {engine!r}; use one of {ENGINES}")
    if engine == "compiled":
        _compiled.library()  # raises, saying why, when it cannot load
    previous = get_default_engine()
    _default_engine = engine
    return previous


def get_default_engine() -> str:
    """The engine every kernel call, build and round step runs on.

    The first call of the process resolves it: ``"compiled"`` when the
    library builds (or is cached) and loads, else ``"reference"``.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = ("compiled" if _compiled.load() is not None
                           else "reference")
    return _default_engine


@contextmanager
def traversal_engine(engine: str):
    """Context manager pinning the default engine (tests, benchmarks)."""
    previous = set_default_engine(engine)
    try:
        yield
    finally:
        set_default_engine(previous)


def batched_nearest(
    bvh: BVH,
    query_points: np.ndarray,
    *,
    query_labels: Optional[np.ndarray] = None,
    node_labels: Optional[np.ndarray] = None,
    init_radius_sq: Optional[np.ndarray] = None,
    query_ids: Optional[np.ndarray] = None,
    point_ids: Optional[np.ndarray] = None,
    query_core_sq: Optional[np.ndarray] = None,
    point_core_sq: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
) -> NearestResult:
    """Constrained nearest neighbor for a batch of queries (Algorithm 2).

    Parameters
    ----------
    query_points:
        ``(B, d)`` query coordinates.
    query_labels / node_labels:
        Component constraint.  When given, a neighbor is admissible only if
        its label differs from the query's, and any subtree whose
        ``node_labels`` entry equals the query label is skipped; the leaf
        slice of ``node_labels`` holds the points' own labels.  Singleton
        labels exclude each query's own point.
    init_radius_sq:
        Per-query initial squared cutoff radius (``inf`` when omitted).
    query_ids / point_ids:
        Global vertex ids used for tie-break keys.  When omitted, ties keep
        the first-found neighbor (plain NN semantics).
    query_core_sq / point_core_sq:
        Squared core distances enabling the mutual-reachability metric.
    counters:
        Work accounting (node visits, distance evals, warp steps).

    Returns positions in *sorted* order; ``position == -1`` where no
    admissible neighbor exists within the initial radius.
    """
    kwargs = dict(
        query_labels=query_labels, node_labels=node_labels,
        init_radius_sq=init_radius_sq,
        query_ids=query_ids, point_ids=point_ids,
        query_core_sq=query_core_sq, point_core_sq=point_core_sq,
        counters=counters)
    if _compiled.selected():
        return _compiled.nearest_compiled(bvh, query_points, **kwargs)
    return _reference.nearest_reference(bvh, query_points, **kwargs)


def batched_knn(
    bvh: BVH,
    query_points: np.ndarray,
    k: int,
    *,
    counters: Optional[CostCounters] = None,
) -> KnnResult:
    """k nearest neighbors for each query (used for HDBSCAN* core distances).

    The paper's core distance counts the point itself, so over the indexed
    set the ``k``-th column includes the zero self-distance.
    """
    if _compiled.selected():
        return _compiled.knn_compiled(bvh, query_points, k,
                                      counters=counters)
    return _reference.knn_reference(bvh, query_points, k,
                                    counters=counters)
