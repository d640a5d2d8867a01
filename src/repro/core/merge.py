"""``mergeComponents``: phase two of each Borůvka iteration.

The selected outgoing edges define a successor function on components.
Because every component points to the component of its *minimum* cut edge
under a strict total order, the functional graph's only cycles are mutual
pairs (two components whose shortest outgoing edges point at each other —
Section 2).  Each chain therefore terminates in exactly one mutual pair;
the paper merges whole chains at once by relabelling every point to the
minimum-index component of its chain's terminal pair.  The ``compiled``
engine resolves each chain to its terminal in one C pass (``steps.c``);
the ``reference`` engine pointer-jumps the successor array
(``O(log chain length)`` vectorized passes) — embarrassingly parallel, as
the paper notes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.bvh import compiled
from repro.errors import ConvergenceError
from repro.kokkos.counters import CostCounters
from repro.core.outgoing import OutgoingEdges


def merge_components(
    labels_sorted: np.ndarray,
    n: int,
    edges: OutgoingEdges,
    *,
    counters: Optional[CostCounters] = None,
) -> Tuple[np.ndarray, int]:
    """New point labels after merging along the found edges.

    Returns ``(new_labels, n_components)``.  Labels remain component
    representatives' sorted positions; the new label of a chain is the
    minimum label of its terminal mutual pair, matching the paper.
    """
    if compiled.selected():
        new_labels, n_components = compiled.merge_compiled(
            labels_sorted, n, edges.component, edges.target_component)
    else:
        new_labels, n_components = _merge_by_jumping(labels_sorted, n, edges)
    if counters is not None:
        counters.record_bulk(n, ops_per_item=4.0, bytes_per_item=16.0)
    return new_labels, n_components


def _merge_by_jumping(labels_sorted: np.ndarray, n: int,
                      edges: OutgoingEdges) -> Tuple[np.ndarray, int]:
    """The reference engine's merge: pointer jumping to a fixed point."""
    succ = np.arange(n, dtype=np.int64)
    succ[edges.component] = edges.target_component

    comp = edges.component
    # Terminal mutual pairs: succ(succ(c)) == c.  Both members adopt the
    # smaller label, turning each 2-cycle into a fixed point.
    mutual = succ[succ[comp]] == comp
    pair_min = np.minimum(comp[mutual], succ[comp[mutual]])
    succ[comp[mutual]] = pair_min

    # Pointer jumping until every chain reaches its fixed point.
    max_jumps = int(np.ceil(np.log2(max(n, 2)))) + 2
    for _ in range(max_jumps):
        nxt = succ[succ]
        if np.array_equal(nxt, succ):
            break
        succ = nxt
    else:
        if not np.array_equal(succ[succ], succ):
            raise ConvergenceError(
                "component chains failed to collapse; the selected edges "
                "contain a cycle longer than 2 (broken tie-breaking)")

    new_labels = succ[labels_sorted]
    n_components = int(np.unique(new_labels).size)
    return new_labels, n_components
