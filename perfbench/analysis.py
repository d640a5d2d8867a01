"""Statistics for the benchmark: percentiles, self time, metric names.

Nothing here touches a process, a socket or the ``repro`` package, so the
self-tests can pin every number the benchmark reports on synthetic input.

Spans are plain dicts as the traced launcher writes them::

    {"name": "core.outgoing", "start": ns, "end": ns,
     "owner": ["job", "job-000007"] | ["req", 12], "meta": {...}}

``owner`` ties a span to one job: worker-thread spans carry the job id
directly, handler spans carry the HTTP request number, and the
``api.handle_*`` span of that request names the job it served.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Every span the traced launcher records, by ``layer.operation[.tier]``.
SPAN_NAMES: Tuple[str, ...] = (
    "api.handle_post", "api.handle_get", "api.park",
    "service.from_dict", "service.submit", "service.to_dict",
    "service.execute", "service.serialize",
    "store.fingerprint",
    "store.lookup.tree", "store.lookup.core", "store.lookup.result",
    "store.put.tree", "store.put.core", "store.put.result",
    "data.generate",
    "bvh.build", "bvh.nearest", "bvh.knn",
    "core.labels", "core.bounds", "core.outgoing", "core.merge",
    "hdbscan.linkage", "hdbscan.condense",
)

#: Spans whose time is subtracted from a parent's to give its self time.
#: ``api.park`` is the long-poll wait for the job itself: it is excluded
#: from the GET handler's self time and reported by no metric of its own
#: (the work it waits for has its own spans).
CHILDREN: Dict[str, Tuple[str, ...]] = {
    "api.handle_post": ("service.from_dict", "service.submit"),
    "api.handle_get": ("api.park", "service.to_dict"),
    "service.execute": ("data.generate", "bvh.build", "bvh.knn",
                        "core.labels", "core.bounds", "core.outgoing",
                        "core.merge", "hdbscan.linkage", "hdbscan.condense",
                        "service.serialize"),
    "core.outgoing": ("bvh.nearest",),
}

#: Call-count metrics the issue names directly instead of ``*_calls``.
CALL_ALIASES: Dict[str, str] = {
    "api.handle_get_calls": "service.polls_per_op",
    "core.labels_calls": "core.rounds",
}

#: Spans whose self time is the traversal kernel and the Borůvka driver.
KERNEL_PREFIXES = ("bvh.", "core.")

TIERS = ("tree", "core", "result")


def metric_name(span: str, suffix: str) -> str:
    """``store.lookup.tree`` + ``ms`` -> ``store.lookup_ms.tree``.

    The unit goes on the operation, the tier stays last, so every metric
    of one operation sorts together whatever its tier.
    """
    layer, op, *tier = span.split(".")
    name = f"{layer}.{op}_{suffix}"
    if tier:
        name += "." + ".".join(tier)
    return CALL_ALIASES.get(name, name) if suffix == "calls" else name


def _timed_spans() -> List[str]:
    return [s for s in SPAN_NAMES if s != "api.park"]


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: Dict[str, str] = {}
    for span in _timed_spans():
        units[metric_name(span, "ms")] = "ms"
        units[metric_name(span, "calls")] = "count"
    units.update({
        "api.handle_get_tail_ms": "ms",
        "service.to_dict_tail_ms": "ms",
        "api.transport_ms": "ms",
        "api.bytes_in": "bytes",
        "api.bytes_out": "bytes",
        "service.queue_wait_ms": "ms",
        "bvh.distance_evals": "count",
        "bvh.nodes_visited": "count",
        "trace.kernel_share": "ratio",
        "trace.overhead_ms": "ms",
    })
    for tier in TIERS:
        units[f"store.hit_ratio.{tier}"] = "ratio"
    return units


# ------------------------------------------------------------ percentiles

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (NumPy's default method)."""
    return float(np.percentile(values, p))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it, floored at the median.

    ``beyond`` samples lie past the interpolation rank ``p/100 (n-1)``
    exactly when the rank stays below ``n - beyond``, i.e. when
    ``p < 100 (n - beyond) / (n - 1)``.  Below ``2 * beyond`` samples no
    percentile above the median has that support; the median is returned
    and the caller records how many samples lie beyond it.
    """
    if n <= 0:
        raise ValueError("tail percentile of no samples")
    if n == 1:
        return 50
    return max(50, (100 * (n - beyond) - 1) // (n - 1))


def samples_beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the ``p``-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


# -------------------------------------------------------------- self time

def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Dict[str, Any], others: Sequence[Dict[str, Any]]) -> int:
    """``span``'s duration minus the part its child spans cover.

    Children are the spans of :data:`CHILDREN` among ``others`` (the same
    job's spans), clipped to the parent's interval: they may run on
    another thread, so nesting is by time, not by call stack.
    """
    start, end = span["start"], span["end"]
    names = CHILDREN.get(span["name"], ())
    clipped = [(max(c["start"], start), min(c["end"], end))
               for c in others if c["name"] in names and c is not span
               and c["start"] < end and c["end"] > start]
    return (end - start) - union_length(clipped)


# --------------------------------------------------------- per-op metrics

def attribute_spans(spans: Sequence[Dict[str, Any]],
                    op_of_job: Dict[str, int], n_ops: int
                    ) -> List[List[Dict[str, Any]]]:
    """Group spans by the op whose job they served; others are dropped
    (warm-up and prefill jobs, health probes)."""
    req_job = {s["meta"]["req"]: s["meta"].get("job") for s in spans
               if s["name"].startswith("api.handle_")}
    grouped: List[List[Dict[str, Any]]] = [[] for _ in range(n_ops)]
    for s in spans:
        kind, key = s["owner"]
        job = key if kind == "job" else req_job.get(key)
        index = op_of_job.get(job) if job is not None else None
        if index is not None:
            grouped[index].append(s)
    return grouped


def executed_counters(result: Dict[str, Any]) -> Dict[str, int]:
    """Distance evaluations and node visits a job actually performed.

    Payload counters replay the original build on a cache hit, so phases
    answered from a cache tier are left out: a result hit did no kernel
    work at all, a tree hit skipped ``tree``, a core hit skipped ``core``.
    """
    cache = result.get("cache") or {}
    payload = result.get("payload") or {}
    counters = (payload.get("emst", payload).get("counters")) or {}
    if cache.get("result_hit") or cache.get("coalesced"):
        return {"distance_evals": 0, "nodes_visited": 0}
    skipped = {"tree"} if cache.get("tree_hit") else set()
    if cache.get("core_hit"):
        skipped.add("core")
    totals = {"distance_evals": 0, "nodes_visited": 0}
    for phase, values in counters.items():
        if phase not in skipped:
            for key in totals:
                totals[key] += int(values.get(key, 0))
    return totals


def layer_metrics(ops: Sequence[Dict[str, Any]],
                  spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``ops`` are the client's records of correctly answered ops: ``docs``
    (the parsed final job documents), ``sent`` and ``done`` (seconds; the
    client's time excludes generator lateness).  Times are per-op busy
    milliseconds, reported as the median over ops, with call counts
    alongside; tails use the op-tail percentile rule.
    """
    op_of_job = {doc["job_id"]: i for i, op in enumerate(ops)
                 for doc in op["docs"]}
    grouped = attribute_spans(spans, op_of_job, len(ops))
    timed = _timed_spans()
    times = {name: [0.0] * len(ops) for name in timed}
    calls = {name: [0] * len(ops) for name in timed}
    bytes_in, bytes_out, transport, kernel_share = [], [], [], []
    lookups = {tier: [0, 0] for tier in TIERS}  # [hits, lookups]
    for i, op_spans in enumerate(grouped):
        in_handler = 0
        kernel = 0
        op_in = op_out = 0
        for s in op_spans:
            name = s["name"]
            if name not in times:
                continue
            own = self_time(s, op_spans)
            times[name][i] += own / 1e6
            calls[name][i] += 1
            if name.startswith(KERNEL_PREFIXES):
                kernel += own
            if name.startswith("api.handle_"):
                in_handler += s["end"] - s["start"]
                op_in += s["meta"].get("bytes_in", 0)
                op_out += s["meta"].get("bytes_out", 0)
            if name.startswith("store.lookup."):
                counts = lookups[name.rsplit(".", 1)[1]]
                counts[0] += bool(s["meta"].get("hit"))
                counts[1] += 1
        client_ms = 1000.0 * (ops[i]["done"] - ops[i]["sent"])
        bytes_in.append(op_in)
        bytes_out.append(op_out)
        transport.append(client_ms - in_handler / 1e6)
        kernel_share.append(kernel / 1e6 / client_ms if client_ms > 0 else 0.0)

    out: Dict[str, float] = {}
    for name in timed:
        out[metric_name(name, "ms")] = median(times[name])
        out[metric_name(name, "calls")] = median(calls[name])
    tail_p = tail_percentile(len(ops))
    out["api.handle_get_tail_ms"] = percentile(times["api.handle_get"], tail_p)
    out["service.to_dict_tail_ms"] = percentile(times["service.to_dict"],
                                                tail_p)
    out["api.transport_ms"] = median(transport)
    out["api.bytes_in"] = median(bytes_in)
    out["api.bytes_out"] = median(bytes_out)
    out["service.queue_wait_ms"] = median([
        1000.0 * sum(r.get("timings", {}).get("queue", 0.0)
                     for r in op["docs"]) for op in ops])
    for key in ("distance_evals", "nodes_visited"):
        out[f"bvh.{key}"] = median([
            sum(executed_counters(r)[key] for r in op["docs"])
            for op in ops])
    for tier, (hits, total) in lookups.items():
        out[f"store.hit_ratio.{tier}"] = hits / total if total else 0.0
    out["trace.kernel_share"] = median(kernel_share)
    return out

