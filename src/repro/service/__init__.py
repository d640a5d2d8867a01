"""Serving engine for the single-tree EMST algorithms.

Turns the one-shot library into a servable system: jobs (EMST, m.r.d. EMST,
HDBSCAN*) queue by priority for a fixed set of worker threads; three
content-addressed cache tiers (:mod:`repro.store`) amortize tree
construction (``T_tree``), core-distance computation (``T_core``) and answer
exact repeats instantly — optionally persisted to disk so a restarted server
stays warm; and a stdlib JSON-over-HTTP API exposes the whole thing
(``python -m repro serve``).

Layers
------
``repro.service.jobs``       job specs, statuses and serializable results
``repro.service.scheduler``  priority queue drained by owned worker threads
``repro.service.executor``   the pure per-job execution path
``repro.service.engine``     the embeddable façade (submit/result/stats)
``repro.service.server``     the HTTP front end (no extra dependencies)

Example
-------
>>> import numpy as np
>>> from repro.service import Engine, JobSpec
>>> points = np.random.default_rng(0).random((500, 2))
>>> with Engine(max_workers=1) as engine:
...     job_id = engine.submit(JobSpec(points=points))
...     result = engine.result(job_id)
>>> result.status.value
'done'
>>> result.emst().edges.shape
(499, 2)
"""

from repro.service.engine import Engine
from repro.service.executor import execute_spec
from repro.service.jobs import (
    ALGORITHMS,
    JobResult,
    JobSpec,
    JobStatus,
    canonical_payload_bytes,
    emst_result_from_dict,
    emst_result_to_dict,
    hdbscan_result_from_dict,
    hdbscan_result_to_dict,
)
from repro.service.scheduler import JobTicket, Scheduler
from repro.service.server import create_server, serve

__all__ = [
    "ALGORITHMS",
    "Engine",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "JobTicket",
    "Scheduler",
    "canonical_payload_bytes",
    "create_server",
    "emst_result_from_dict",
    "emst_result_to_dict",
    "execute_spec",
    "hdbscan_result_from_dict",
    "hdbscan_result_to_dict",
    "serve",
]
