"""Pure job execution for the serving engine.

:func:`execute_spec` is the compute half of a job: it takes a plain-dict
*execution spec* (points or a dataset spec, the algorithm and its
parameters, optionally a cached tree's order and/or core-distance
artifact) and returns a plain-dict outcome.  It touches no engine state —
no caches, no records, no locks — so the engine's worker threads call it
concurrently, and the plain-dict form is also what the benchmark oracle
calls to recompute a served answer.  The payload comes back as a dict; the
engine encodes it to its one stored form
(:class:`~repro.store.blob.EncodedPayload`, whose size is its exact byte
length) after the outcome arrives.

Cache interaction stays in the engine: it fingerprints and consults its
tiers *before* the call and inserts the returned artifacts *after* it.  A
tree goes in and comes out as its ``order`` alone: every job builds its
tree with one :func:`~repro.core.emst.build_tree` call, which skips the
sort when handed a cached order, and an order that does not fit the
points is a miss (the job builds cold and returns its own).  Core
distances travel as one caller-order float64 array.

The job's one tree build records its work into the payload's ``tree``
counters, cold or from a cached order (which does the cold build's
counted work).  An injected core-distance artifact *replays* the
counters recorded when it was first computed (cached alongside the
array), so a payload served warm is byte-identical —
:func:`~repro.service.jobs.canonical_payload_bytes` — to the same spec
executed cold: a skipped phase reports zero seconds but its original,
deterministic work numbers.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional

import numpy as np

from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import build_tree, emst, mutual_reachability_emst
from repro.errors import InvalidInputError
from repro.hdbscan.hdbscan import hdbscan
from repro.kokkos.counters import CostCounters
from repro.service.jobs import (
    JobSpec,
    emst_result_to_dict,
    hdbscan_result_to_dict,
)
from repro.timing import PhaseTimer

def make_exec_spec(spec: JobSpec, *,
                   points: Optional[np.ndarray] = None,
                   tree_order: Optional[np.ndarray] = None,
                   core_state: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The plain-dict execution spec for ``spec``.

    ``points`` forwards an already-resolved array (the engine resolves when
    it needs the content fingerprint); left ``None`` for a dataset job,
    :func:`execute_spec` regenerates it from the deterministic spec (the
    engine does so when a memoized fingerprint let it skip resolving).
    ``tree_order`` injects a cached tree's order; ``core_state`` injects a
    cached core-distance artifact (``{"core_sq": array, "counters":
    dict}``).
    """
    return {
        "points": points,
        "dataset": spec.dataset,
        "algorithm": spec.algorithm,
        "config": asdict(spec.config),
        "k_pts": spec.k_pts,
        "min_cluster_size": spec.min_cluster_size,
        "tree_order": tree_order,
        "core_state": core_state,
    }


def execute_spec(exec_spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to completion; pure function of its argument.

    Returns a dict with the serialized result ``payload`` (a JSON-safe
    dict), the execution ``phases`` (``resolve`` / ``tree_build`` /
    ``compute`` wall seconds), the problem shape
    (``n_points`` / ``dimension`` / ``features``) and — when the worker had
    to build an artifact itself — its ``tree_order`` and/or
    ``core_state`` so the parent can cache them for the next job over the
    same points.  A ``tree_order`` in the outcome also means an
    injected one was not used.
    """
    timer = PhaseTimer()
    config = SingleTreeConfig(**exec_spec["config"])
    points = exec_spec.get("points")
    if points is None:
        from repro.data import generate_from_spec
        with timer.phase("resolve"):
            points = generate_from_spec(exec_spec["dataset"])
    algorithm = exec_spec["algorithm"]
    tree_order = exec_spec.get("tree_order")
    core_state = exec_spec.get("core_state")
    injected_core = core_state["core_sq"] if core_state is not None else None
    tree_counters = CostCounters()
    with timer.phase("tree_build"):
        try:
            bvh = build_tree(points, config=config, counters=tree_counters,
                             order=tree_order)
        except InvalidInputError:
            if tree_order is None:
                raise
            # A cached order that does not fit these points is a miss.
            tree_order = None
            tree_counters = CostCounters()
            bvh = build_tree(points, config=config, counters=tree_counters)
    tree_hit = tree_order is not None
    # check_tree=False: the tree was just built over these very points.
    with timer.phase("compute"):
        if algorithm == "emst":
            computed = emst(points, config=config, bvh=bvh, check_tree=False)
            payload = emst_result_to_dict(computed)
            emst_result = computed
        elif algorithm == "mrd_emst":
            computed = mutual_reachability_emst(
                points, exec_spec["k_pts"], config=config, bvh=bvh,
                check_tree=False, core_sq=injected_core)
            payload = emst_result_to_dict(computed)
            emst_result = computed
        elif algorithm == "hdbscan":
            computed = hdbscan(
                points, min_cluster_size=exec_spec["min_cluster_size"],
                k_pts=exec_spec["k_pts"], config=config,
                bvh=bvh, check_tree=False, core_sq=injected_core)
            payload = hdbscan_result_to_dict(computed)
            emst_result = computed.emst
        else:
            # JobSpec.validate() admits nothing else, but a spec mutated
            # after validation must fail loudly, not run the wrong
            # algorithm.
            raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    # The tree was built above, outside the timed algorithm, so its work
    # goes into the payload here.  An injected core artifact replays its
    # cached counters: a skipped phase reports zero wall seconds but its
    # original (and deterministic) work numbers.
    emst_payload = payload["emst"] if algorithm == "hdbscan" else payload
    emst_payload["counters"]["tree"] = tree_counters.as_dict()
    new_core_state = None
    if injected_core is not None:
        if core_state.get("counters") is not None:
            emst_payload["counters"]["core"] = dict(core_state["counters"])
    elif emst_result.core_sq is not None:
        new_core_state = {"core_sq": emst_result.core_sq,
                          "counters": emst_payload["counters"]["core"]}
    return {
        "payload": payload,
        "phases": timer.as_dict(),
        "n_points": int(points.shape[0]),
        "dimension": int(points.shape[1]),
        "features": int(points.shape[0] * points.shape[1]),
        "tree_order": None if tree_hit else bvh.order,
        "core_state": new_core_state,
    }
