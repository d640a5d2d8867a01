"""Span recording for the traced server run.

:func:`install` wraps each layer's public functions where their caller
looks the name up (``repro.core.boruvka_emst.reduce_labels``, not
``repro.core.labels.reduce_labels``), so the running server calls the
wrappers without a line of ``src/`` changing.  Spans go to an in-memory
list and are written out once, when the server exits.

Every span carries an *owner*: the job id when it ran on an engine worker
(set by the wrapper around ``Engine._run_job``), else the number of the
HTTP request whose handler ran it.  ``asyncio.to_thread`` copies context
variables, so work a handler pushes to a thread keeps its request number.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import re
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute, span) — module-level names, patched in the module
#: that calls them.
FUNCTIONS = (
    ("repro.service.engine", "execute_spec", "service.execute"),
    ("repro.service.engine", "fingerprint_array", "store.fingerprint"),
    ("repro.service.executor", "emst_result_to_dict", "service.serialize"),
    ("repro.service.executor", "hdbscan_result_to_dict", "service.serialize"),
    ("repro.service.executor", "build_tree", "bvh.build"),
    ("repro.data", "generate_from_spec", "data.generate"),
    ("repro.core.outgoing", "batched_nearest", "bvh.nearest"),
    ("repro.core.emst", "batched_knn", "bvh.knn"),
    ("repro.hdbscan.core_distance", "batched_knn", "bvh.knn"),
    ("repro.core.boruvka_emst", "reduce_labels", "core.labels"),
    ("repro.core.boruvka_emst", "compute_upper_bounds", "core.bounds"),
    ("repro.core.boruvka_emst", "find_components_outgoing_edges",
     "core.outgoing"),
    ("repro.core.boruvka_emst", "merge_components", "core.merge"),
    ("repro.hdbscan.hdbscan", "single_linkage_tree", "hdbscan.linkage"),
    ("repro.hdbscan.hdbscan", "condense_tree", "hdbscan.condense"),
    ("repro.hdbscan.hdbscan", "extract_clusters", "hdbscan.condense"),
)

#: (module, class, method, span) — plain methods, patched on the class.
METHODS = (
    ("repro.service.engine", "Engine", "submit", "service.submit"),
    ("repro.service.jobs", "JobResult", "to_dict", "service.to_dict"),
)

_JOB_PATH = re.compile(r"^/v1/jobs(?:/([^/]+))?$")


class Recorder:
    """Spans of one server process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.owner: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_owner", default=None)
        #: Numbers the traced HTTP requests (the ``req`` owners).
        self.requests = itertools.count(1)

    def add(self, name: str, start: int, end: int, *,
            owner: Optional[List[Any]] = None, **meta: Any) -> None:
        owner = owner if owner is not None else self.owner.get()
        if owner is not None:  # list.append is atomic under the GIL
            self.spans.append({"name": name, "start": start, "end": end,
                               "owner": owner, "meta": meta})

    def timed(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, start, time.perf_counter_ns())
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _attr(module: str, name: str) -> Any:
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        # A refactor moved a layer: fail the traced run loudly instead of
        # reporting a silently empty layer.
        raise SystemExit(f"perfbench: trace target {module}.{name} is gone")
    return mod, getattr(mod, name)


def install(rec: Recorder) -> None:
    """Wrap every traced layer; call before the engine is constructed."""
    for module, name, span in FUNCTIONS:
        mod, fn = _attr(module, name)
        setattr(mod, name, rec.timed(fn, span))
    for module, cls_name, name, span in METHODS:
        _, cls = _attr(module, cls_name)
        setattr(cls, name, rec.timed(getattr(cls, name), span))

    _, job_spec = _attr("repro.service.jobs", "JobSpec")
    from_dict = job_spec.from_dict.__func__
    job_spec.from_dict = classmethod(rec.timed(from_dict, "service.from_dict"))

    _, tiered = _attr("repro.store.tiered", "TieredCache")
    get_with_source, put = tiered.get_with_source, tiered.put

    def traced_get(self, key):
        start = time.perf_counter_ns()
        value, source = get_with_source(self, key)
        rec.add(f"store.lookup.{self.tier}", start, time.perf_counter_ns(),
                hit=value is not None)
        return value, source

    def traced_put(self, key, value, nbytes=None):
        start = time.perf_counter_ns()
        try:
            return put(self, key, value, nbytes)
        finally:
            rec.add(f"store.put.{self.tier}", start, time.perf_counter_ns())

    tiered.get_with_source, tiered.put = traced_get, traced_put

    # The scheduler binds ``engine._run_job`` when the Engine is built, so
    # this patch must land first; it only sets the owner of worker spans.
    _, engine_cls = _attr("repro.service.engine", "Engine")
    run_job = engine_cls._run_job

    def owned_run_job(self, ticket):
        token = rec.owner.set(["job", ticket.job_id])
        try:
            return run_job(self, ticket)
        finally:
            rec.owner.reset(token)

    engine_cls._run_job = owned_run_job

    _, api_cls = _attr("repro.service.server", "EngineAPI")
    park = api_cls._wait_for_result

    async def traced_park(self, job_id, wait):
        start = time.perf_counter_ns()
        try:
            return await park(self, job_id, wait)
        finally:
            rec.add("api.park", start, time.perf_counter_ns())

    api_cls._wait_for_result = traced_park

    _, wire_cls = _attr("repro.api.contract", "WireAPI")
    handle = wire_cls.handle

    async def traced_handle(self, request):
        match = _JOB_PATH.match(request.path)
        if match is None or request.method not in ("GET", "POST"):
            return await handle(self, request)
        req = next(rec.requests)
        token = rec.owner.set(["req", req])
        start = time.perf_counter_ns()
        try:
            response = await handle(self, request)
        finally:
            end = time.perf_counter_ns()
            rec.owner.reset(token)
        rec.add(f"api.handle_{request.method.lower()}", start, end,
                owner=["req", req], req=req, job=_job_of(match, response),
                bytes_in=len(request.body), bytes_out=len(response.body),
                status=response.status)
        return response

    wire_cls.handle = traced_handle


def _job_of(match: "re.Match", response: Any) -> Optional[str]:
    if match.group(1):
        return match.group(1)
    if response.status == 202:  # the accepted POST names its job
        return json.loads(response.body).get("job_id")
    return None
