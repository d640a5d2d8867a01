"""Per-job tracing: timestamped span trees carried on job results.

A *trace* records the life of one job as a tree of spans — ``submit →
queued → executed → served`` on a node, with the executed span holding
per-phase children (``tree``/``core``/``mst``) and the job's summed
:class:`~repro.kokkos.counters.CostCounters`.  For a
routed job the cluster router prepends its own hop spans (including
failed hops on failover), shipped to the serving node in the
:data:`TRACE_HEADER` HTTP header, so one trace shows the full path:
router → (dead node, failover) → home node → phases.

Traces ride on ``JobResult.trace`` — *outside* the payload, like the cost
counters already are, so :func:`repro.service.jobs.canonical_payload_bytes`
and every byte-identity test are untouched by their presence or absence.

Spans are plain dicts (JSON all the way through):

``{"name": str, "node": str, "start": epoch_seconds, "duration_s": float,
"meta": {...}, "children": [span, ...]}``

Timestamps are wall-clock epoch seconds because spans from different
processes (router, nodes) land in one tree; sub-spans additionally carry
monotonic-derived durations which are reliable within a process.
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Any, Dict, List, Optional

#: HTTP header carrying a trace context across cluster hops.
TRACE_HEADER = "X-Repro-Trace"

#: Upper bounds on what :func:`from_header` accepts — a trace header is
#: advisory context, never worth an unbounded parse.
MAX_HEADER_BYTES = 64 * 1024
MAX_SPANS = 256


def new_trace_id() -> str:
    """A fresh trace identifier (``tr-`` + 16 hex chars)."""
    return "tr-" + uuid.uuid4().hex[:16]


def make_span(name: str, *, node: str = "", start: Optional[float] = None,
              duration_s: float = 0.0, children: Optional[List[Dict[str, Any]]] = None,
              **meta: Any) -> Dict[str, Any]:
    """Build one span dict; extra keyword args land in ``meta``."""
    span: Dict[str, Any] = {
        "name": name,
        "node": node,
        "start": time.time() if start is None else float(start),
        "duration_s": float(duration_s),
    }
    if meta:
        span["meta"] = meta
    if children:
        span["children"] = children
    return span


def make_trace(trace_id: Optional[str] = None,
               spans: Optional[List[Dict[str, Any]]] = None) -> Dict[str, Any]:
    """A trace document: ``{"trace_id": ..., "spans": [...]}``."""
    return {"trace_id": trace_id or new_trace_id(), "spans": spans or []}


def _count_spans(spans: List[Any]) -> int:
    total = 0
    stack = list(spans)
    while stack:
        span = stack.pop()
        if not isinstance(span, dict):
            continue
        total += 1
        stack.extend(span.get("children", ()))
    return total


def to_header(trace: Dict[str, Any]) -> str:
    """Serialise a trace for the :data:`TRACE_HEADER` HTTP header."""
    return json.dumps(trace, separators=(",", ":"))


def from_header(value: Optional[str]) -> Optional[Dict[str, Any]]:
    """Parse a trace header defensively; ``None`` on anything off.

    A malformed or oversized header must never fail a job submission —
    the job matters, its trace context is best-effort.
    """
    if not value or len(value) > MAX_HEADER_BYTES:
        return None
    try:
        trace = json.loads(value)
    except (ValueError, TypeError):
        return None
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    spans = trace.get("spans")
    if not isinstance(trace_id, str) or not isinstance(spans, list):
        return None
    if _count_spans(spans) > MAX_SPANS:
        return None
    return {"trace_id": trace_id, "spans": spans}


def _format_duration(seconds: float) -> str:
    ms = seconds * 1e3
    if ms >= 100:
        return f"{ms:.0f}ms"
    if ms >= 1:
        return f"{ms:.1f}ms"
    return f"{ms:.3f}ms"


def _format_meta(meta: Dict[str, Any]) -> str:
    parts = []
    for key, value in meta.items():
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]" if parts else ""


def format_trace(trace: Dict[str, Any]) -> str:
    """Pretty-print a trace as an indented span tree (``repro trace``).

    >>> t = make_trace("tr-demo", [
    ...     make_span("submit", node="n0", start=0.0),
    ...     make_span("executed", node="n0", start=0.1, duration_s=0.25,
    ...               children=[make_span("tree", start=0.1,
    ...                                   duration_s=0.2)])])
    >>> print(format_trace(t))  # doctest: +NORMALIZE_WHITESPACE
    trace tr-demo
      submit         @n0
      executed       @n0  250ms
        tree          200ms
    """
    lines = [f"trace {trace.get('trace_id', '?')}"]

    def walk(spans: List[Dict[str, Any]], depth: int) -> None:
        for span in spans:
            name = str(span.get("name", "?"))
            node = span.get("node") or ""
            duration = float(span.get("duration_s") or 0.0)
            pieces = [f"{'  ' * depth}{name:<15}"]
            if node:
                pieces.append(f"@{node}")
            if duration:
                pieces.append(_format_duration(duration))
            line = " ".join(pieces).rstrip()
            line += _format_meta(span.get("meta") or {})
            lines.append(line)
            walk(span.get("children") or [], depth + 1)

    walk(trace.get("spans") or [], 1)
    return "\n".join(lines)
