"""repro — single-tree Borůvka EMST on GPUs, reproduced in Python.

Reproduction of A. Prokopenko, P. Sao, D. Lebrun-Grandié, *"A single-tree
algorithm to compute the Euclidean minimum spanning tree on GPUs"*
(ICPP 2022, arXiv:2207.00514).

Quickstart
----------
>>> import numpy as np
>>> from repro import emst
>>> points = np.random.default_rng(0).random((1000, 3))
>>> tree = emst(points)
>>> tree.edges.shape
(999, 2)

Package map
-----------
``repro.core``      the paper's single-tree Borůvka EMST (+ m.r.d. metric)
``repro.bvh``       linear BVH substrate (ArborX analogue)
``repro.kokkos``    work counters priced by simulated device cost models
``repro.baselines`` MLPACK dual-tree, MemoGFK/WSPD, Bentley–Friedman, oracles
``repro.hdbscan``   HDBSCAN* on the mutual-reachability EMST
``repro.data``      generators mirroring the paper's 12 datasets
``repro.bench``     harness regenerating every figure of the evaluation
``repro.service``   job-serving engine: job scheduling, content-addressed
                    tree/result/core caching, JSON-over-HTTP API
                    (``repro serve``)
``repro.store``     persistent content-addressed artifact store: disk
                    spill, warm restart, crash-safe blobs (``--store-dir``)

Serving quickstart
------------------
>>> from repro.service import Engine, JobSpec  # doctest: +SKIP
>>> with Engine() as engine:  # doctest: +SKIP
...     job_id = engine.submit(JobSpec(dataset="Uniform100M2:10000"))
...     tree = engine.result(job_id).emst()
"""

from repro.core.emst import EMSTResult, emst, mutual_reachability_emst
from repro.core.boruvka_emst import SingleTreeConfig
from repro.bvh.bvh import BVH, build_bvh
from repro.hdbscan.hdbscan import HDBSCANResult, hdbscan
from repro.metrics import mfeatures_per_second
from repro.errors import (
    ConvergenceError,
    DimensionError,
    InvalidInputError,
    ReproError,
)

__version__ = "1.1.0"


def __getattr__(name):
    # ``repro.service`` is imported lazily: it drags in the HTTP/threading
    # machinery (and ``repro.service.server`` reads ``repro.__version__``),
    # which plain library users computing one tree never need.
    if name == "service":
        import repro.service
        return repro.service
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "service",
    "emst",
    "mutual_reachability_emst",
    "EMSTResult",
    "SingleTreeConfig",
    "BVH",
    "build_bvh",
    "hdbscan",
    "HDBSCANResult",
    "mfeatures_per_second",
    "ReproError",
    "InvalidInputError",
    "DimensionError",
    "ConvergenceError",
    "__version__",
]
