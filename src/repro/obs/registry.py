"""The metrics registry: counters, gauges and latency histograms.

A :class:`MetricsRegistry` is the instrumentation seam of the serving
stack: the engine, the job scheduler, the tiered caches and the cluster
router all register their instruments into one registry, and the HTTP
front ends expose it as ``GET /v1/metrics`` — Prometheus text format by
default, JSON with ``?format=json``.

Design points:

* **Lock-cheap hot path.**  ``inc``/``observe`` take one uncontended
  per-family lock around an int/float add (histograms: one bisect plus
  three adds, see :class:`repro.metrics.Histogram`).  When the registry is
  *disabled* (``REPRO_OBS=off``) every write is a single attribute check
  — the overhead benchmark (``benchmarks/bench_obs.py``) measures exactly
  this gap.
* **Registry per serving component, not per process.**  An
  :class:`~repro.service.engine.Engine` owns its registry (test suites
  and ``cluster-demo`` boot several engines in one process; a global
  registry would pool their counters and break per-node statistics).
  :data:`REGISTRY` is the process-default for standalone use.
* **Mergeable exposition.**  :meth:`MetricsRegistry.as_dict` is the JSON
  wire form; :func:`render_prometheus` turns one or many such documents
  into a single valid Prometheus text page, attaching extra labels per
  document — which is how the cluster router re-exports every node's
  metrics under a ``node=`` label in one fleet-wide scrape surface.

Families are created idempotently (``registry.counter(name)`` returns the
existing family on repeat calls), so components wired to one registry can
share label families — e.g. all three cache tiers report into one
``repro_cache_lookups_total{tier=,level=,outcome=}`` family.
"""

from __future__ import annotations

import re
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.metrics import DEFAULT_LATENCY_BUCKETS, Histogram

#: Metric kinds a family can have.
KINDS = ("counter", "gauge", "histogram")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


class Handle:
    """One labeled child of a family; the object hot paths hold on to."""

    __slots__ = ("family", "key")

    def __init__(self, family: "MetricFamily", key: Tuple[str, ...]) -> None:
        self.family = family
        self.key = key

    def inc(self, amount: float = 1.0) -> None:
        self.family._inc(self.key, amount)

    def set(self, value: float) -> None:
        self.family._set(self.key, value)

    def observe(self, value: float) -> None:
        self.family._observe(self.key, value)

    @property
    def value(self) -> float:
        return self.family._value(self.key)


class MetricFamily:
    """All samples of one metric name, across its label combinations."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str, label_names: Tuple[str, ...],
                 buckets: Sequence[float],
                 fn: Optional[Callable[[], Any]] = None) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = tuple(float(b) for b in buckets)
        self.fn = fn
        self._lock = threading.Lock()
        #: label-values tuple -> float (counter/gauge) or Histogram.
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not label_names and fn is None:
            # Unlabeled families expose their zero sample immediately, so
            # a scrape sees every registered series even before traffic.
            self._children[()] = (Histogram(self.buckets)
                                  if kind == "histogram" else 0.0)

    # ---------------------------------------------------------------- access

    def labels(self, **labels: Any) -> Handle:
        """The handle for one label combination (created zeroed)."""
        key = self._key(labels)
        with self._lock:
            if key not in self._children:
                self._children[key] = (Histogram(self.buckets)
                                       if self.kind == "histogram" else 0.0)
        return Handle(self, key)

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    # -------------------------------------------------------------- mutation

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if self.kind not in ("counter", "gauge"):
            raise TypeError(f"{self.name} is a {self.kind}, cannot inc()")
        if self.kind == "counter" and amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        if not self.registry.enabled:
            return
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, cannot set()")
        if not self.registry.enabled:
            return
        with self._lock:
            self._children[key] = float(value)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, cannot observe()")
        if not self.registry.enabled:
            return
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Histogram(self.buckets)
            child.observe(value)

    # --------------------------------------------------------------- reading

    def _value(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            child = self._children.get(key, 0.0)
        if isinstance(child, Histogram):
            raise TypeError(f"{self.name} is a histogram; read samples()")
        return float(child)

    # Label-free convenience: most families in this codebase are unlabeled.

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._inc(self._key(labels), amount)

    def set(self, value: float, **labels: Any) -> None:
        self._set(self._key(labels), value)

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        if self.kind == "histogram":
            with self._lock:
                if key not in self._children:
                    self._children[key] = Histogram(self.buckets)
        self._observe(key, value)

    def value(self, **labels: Any) -> float:
        return self._value(self._key(labels))

    def histogram(self, **labels: Any) -> Histogram:
        """A snapshot copy of one labeled histogram (empty if untouched)."""
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}")
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return Histogram(self.buckets)
            return Histogram.from_dict(child.as_dict())

    def samples(self) -> List[Dict[str, Any]]:
        """JSON-safe samples: ``{"labels": {...}, "value"| histogram}``."""
        out: List[Dict[str, Any]] = []
        with self._lock:
            items = list(self._children.items())
        if self.fn is not None:
            items = self._collect_fn()
        for key, child in items:
            labels = dict(zip(self.label_names, key))
            if isinstance(child, Histogram):
                out.append({"labels": labels, **child.as_dict()})
            else:
                out.append({"labels": labels, "value": float(child)})
        return out

    def _collect_fn(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Evaluate a callback gauge into ``(key, value)`` items."""
        collected = self.fn()
        if isinstance(collected, (int, float)):
            return [((), float(collected))]
        # A dict maps label-value tuples (or single values) to floats.
        items: List[Tuple[Tuple[str, ...], float]] = []
        for key, value in collected.items():
            if not isinstance(key, tuple):
                key = (key,)
            items.append((tuple(str(k) for k in key), float(value)))
        return items


class MetricsRegistry:
    """Ordered collection of metric families with text/JSON exposition."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}

    # ---------------------------------------------------------- registration

    def _register(self, name: str, kind: str, help: str,
                  labels: Sequence[str], buckets: Sequence[float],
                  fn: Optional[Callable[[], Any]] = None) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad label name {label!r} on {name}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{family.kind}{family.label_names}, "
                        f"cannot re-register as {kind}{label_names}")
                return family
            family = MetricFamily(self, name, kind, help, label_names,
                                  buckets, fn)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """A monotonically increasing counter family (idempotent)."""
        return self._register(name, "counter", help, labels,
                              DEFAULT_LATENCY_BUCKETS)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = (),
              fn: Optional[Callable[[], Any]] = None) -> MetricFamily:
        """A settable gauge family; ``fn`` makes it collect-on-scrape.

        A callback gauge evaluates ``fn()`` at exposition time: a plain
        number for an unlabeled gauge, or a dict of label-value(-tuple)
        to number for a labeled one — how occupancy numbers (queue depth,
        cache bytes) are read live instead of being pushed on every
        mutation.
        """
        return self._register(name, "gauge", help, labels,
                              DEFAULT_LATENCY_BUCKETS, fn)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> MetricFamily:
        """A fixed-bucket histogram family (idempotent)."""
        return self._register(name, "histogram", help, labels, buckets)

    # ------------------------------------------------------------ exposition

    def as_dict(self) -> Dict[str, Any]:
        """The JSON exposition document (``?format=json`` wire form)."""
        with self._lock:
            families = list(self._families.values())
        return {"metrics": [
            {"name": f.name, "type": f.kind, "help": f.help,
             "samples": f.samples()}
            for f in families]}

    def render_prometheus(self,
                          extra_labels: Optional[Dict[str, str]] = None,
                          ) -> str:
        """This registry as one Prometheus text-format page."""
        return render_prometheus([(extra_labels or {}, self.as_dict())])


#: Process-default registry for standalone / module-level instrumentation.
REGISTRY = MetricsRegistry()


def render_prometheus(documents: Iterable[Tuple[Dict[str, str],
                                                Dict[str, Any]]]) -> str:
    """Render JSON exposition documents as one Prometheus text page.

    ``documents`` is ``(extra_labels, doc)`` pairs — samples from each
    document carry its extra labels (the router passes ``{"node": name}``
    per scraped node).  Families sharing a name across documents are
    merged under a single ``# TYPE`` block, as the text format requires;
    the first document's help string wins.
    """
    merged: "Dict[str, Dict[str, Any]]" = {}
    for extra, doc in documents:
        for family in doc.get("metrics", []):
            name = family.get("name")
            if not name or not _NAME_RE.match(name):
                continue
            entry = merged.setdefault(
                name, {"type": family.get("type", "gauge"),
                       "help": family.get("help", ""), "samples": []})
            for sample in family.get("samples", []):
                labels = {**sample.get("labels", {}), **extra}
                entry["samples"].append({**sample, "labels": labels})
    lines: List[str] = []
    for name, entry in merged.items():
        if entry["help"]:
            help_text = entry["help"].replace("\\", "\\\\").replace("\n",
                                                                    "\\n")
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if "value" in sample:
                lines.append(f"{name}{_format_labels(labels)} "
                             f"{_format_value(sample['value'])}")
                continue
            # Histogram sample: cumulative buckets, then sum and count.
            cumulative = 0
            for bound, count in zip(sample["bounds"], sample["counts"]):
                cumulative += int(count)
                bucket_labels = {**labels, "le": _format_value(bound)}
                lines.append(f"{name}_bucket{_format_labels(bucket_labels)} "
                             f"{cumulative}")
            total = cumulative + int(sample["counts"][-1])
            inf_labels = {**labels, "le": "+Inf"}
            lines.append(f"{name}_bucket{_format_labels(inf_labels)} "
                         f"{total}")
            lines.append(f"{name}_sum{_format_labels(labels)} "
                         f"{_format_value(sample['sum'])}")
            lines.append(f"{name}_count{_format_labels(labels)} {total}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def parse_prometheus_text(text: str) -> Dict[str, List[Tuple[Dict[str, str],
                                                             float]]]:
    """Parse Prometheus text format into ``{series: [(labels, value)]}``.

    Series names are literal (``foo_bucket``, ``foo_sum`` stay distinct);
    comments and blank lines are skipped.  Used by the CI smoke check and
    the tests to assert on scraped output without a client library.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$", line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name, _, raw_labels, raw_value = match.groups()
        labels: Dict[str, str] = {}
        if raw_labels:
            for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]'
                                   r'|\\.)*)"', raw_labels):
                key, value = part
                labels[key] = (value.replace("\\n", "\n")
                               .replace('\\"', '"').replace("\\\\", "\\"))
        out.setdefault(name, []).append((labels, float(raw_value)))
    return out


def histogram_from_sample(sample: Dict[str, Any]) -> Histogram:
    """Rebuild a :class:`Histogram` from one JSON exposition sample."""
    return Histogram.from_dict(sample)
