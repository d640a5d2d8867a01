"""Job specifications and serializable results for the serving engine.

A :class:`JobSpec` names *what* to compute — a point source (inline array or
``dataset:NAME:N[:SEED]`` spec), an algorithm (``emst`` | ``mrd_emst`` |
``hdbscan``), the :class:`~repro.core.boruvka_emst.SingleTreeConfig` knobs
and a scheduling priority.  A :class:`JobResult` carries the outcome in
plain-dict form so it survives a JSON round trip through the HTTP front end;
an engine-built result also carries the payload's stored JSON bytes, which
:meth:`JobResult.to_json` serves without re-encoding.
:func:`emst_result_to_dict` / :func:`emst_result_from_dict` (and the HDBSCAN
pair) losslessly convert the library's result dataclasses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.boruvka_emst import RoundStats, SingleTreeConfig
from repro.core.emst import EMSTResult
from repro.errors import InvalidInputError
from repro.geometry.morton import MAX_BITS_2D, MAX_BITS_3D
from repro.hdbscan.condense import CondensedTree
from repro.hdbscan.hdbscan import HDBSCANResult
from repro.kokkos.counters import CostCounters
from repro.store.blob import EncodedPayload

#: Algorithms the engine can serve.
ALGORITHMS = ("emst", "mrd_emst", "hdbscan")


class JobStatus(str, Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def finished(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self in (JobStatus.DONE, JobStatus.FAILED)


@dataclass
class JobSpec:
    """One unit of servable work.

    Exactly one of ``points`` (an inline ``(n, d)`` array) or ``dataset``
    (a ``NAME:N[:SEED]`` generator spec, with or without the CLI's
    ``dataset:`` prefix) must be given.  ``k_pts`` applies to ``mrd_emst``
    and ``hdbscan``; ``min_cluster_size`` to ``hdbscan`` only.  Higher
    ``priority`` jobs leave the scheduler queue first.
    """

    points: Optional[np.ndarray] = None
    dataset: Optional[str] = None
    algorithm: str = "emst"
    config: SingleTreeConfig = field(default_factory=SingleTreeConfig)
    k_pts: int = 5
    min_cluster_size: int = 5
    priority: int = 0
    #: Memoized validate() verdict — the O(n*d) point scan runs once even
    #: though from_dict, Engine.submit and resolve_points all validate.
    #: Treat a spec as immutable once validated.
    _validated: bool = field(default=False, init=False, repr=False,
                             compare=False)

    def validate(self) -> None:
        """Raise :class:`InvalidInputError` on an inconsistent spec."""
        if self._validated:
            return
        if (self.points is None) == (self.dataset is None):
            raise InvalidInputError(
                "exactly one of points or dataset must be given")
        if self.points is not None:
            # A raw (possibly ragged) list can make asarray itself raise;
            # that is still a bad *input*, not an internal error.
            try:
                arr = np.asarray(self.points)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(f"bad inline points: {exc}") from exc
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise InvalidInputError(
                    f"inline points must be a non-empty (n, d) array, "
                    f"got shape {arr.shape}")
            if arr.dtype.kind == "c":
                raise InvalidInputError(
                    "complex points are not supported")
            # Apply the core layer's constraints up front so a bad job is
            # a synchronous error, not an accepted-then-failed one.
            from repro.core.emst import _validate_points
            try:
                _validate_points(arr)
            except InvalidInputError:
                raise
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"bad inline points: {exc}")
            dim = arr.shape[1]
        if self.dataset is not None:
            from repro.data import dataset_dimension, parse_dataset_spec
            # Malformed specs fail at submit.
            dim = dataset_dimension(parse_dataset_spec(self.dataset)[0])
        for name in ("subtree_skipping", "component_bounds",
                     "high_resolution", "warm_frontier"):
            if not isinstance(getattr(self.config, name), bool):
                raise InvalidInputError(
                    f"config.{name} must be a boolean, "
                    f"got {getattr(self.config, name)!r}")
        bits = self.config.bits
        if bits is not None and (not isinstance(bits, int)
                                 or isinstance(bits, bool)):
            raise InvalidInputError(
                f"config.bits must be an integer or null, got {bits!r}")
        window = self.config.bound_window
        if not isinstance(window, int) or isinstance(window, bool) \
                or window < 1:
            raise InvalidInputError(
                "config.bound_window must be a positive integer, "
                f"got {window!r}")
        if self.config.tree_type not in ("bvh", "kdtree"):
            raise InvalidInputError(
                f"config.tree_type must be 'bvh' or 'kdtree', "
                f"got {self.config.tree_type!r}")
        if self.config.tree_type == "kdtree" and (
                bits is not None or self.config.high_resolution):
            raise InvalidInputError(
                "Morton-resolution options apply to the BVH backend only")
        if bits is not None:
            if self.config.high_resolution:
                raise InvalidInputError(
                    "config.bits and config.high_resolution are exclusive")
            max_bits = MAX_BITS_2D if dim == 2 else MAX_BITS_3D
            if not 1 <= bits <= max_bits:
                raise InvalidInputError(
                    f"config.bits must be in [1, {max_bits}] for d={dim}, "
                    f"got {bits}")
        if self.algorithm not in ALGORITHMS:
            raise InvalidInputError(
                f"unknown algorithm {self.algorithm!r}; "
                f"use one of {', '.join(ALGORITHMS)}")
        for name in ("k_pts", "min_cluster_size", "priority"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidInputError(
                    f"{name} must be an integer, got {value!r}")
        if self.k_pts < 1:
            raise InvalidInputError(f"k_pts must be >= 1, got {self.k_pts}")
        if self.algorithm == "hdbscan" and self.min_cluster_size < 2:
            raise InvalidInputError(
                f"min_cluster_size must be >= 2, got {self.min_cluster_size}")
        self._validated = True

    def resolve_points(self) -> np.ndarray:
        """Materialize the point array this job operates on."""
        self.validate()
        if self.points is not None:
            return np.asarray(self.points, dtype=np.float64)
        from repro.data import generate_from_spec
        return generate_from_spec(self.dataset)

    def params_key(self) -> str:
        """Canonical string of everything but the points.

        Two jobs with equal ``params_key()`` over byte-identical points
        compute the same answer — the result-cache key component.
        """
        cfg = ",".join(f"{f.name}={getattr(self.config, f.name)!r}"
                       for f in fields(self.config))
        parts = [f"algorithm={self.algorithm}", f"config=({cfg})"]
        if self.algorithm in ("mrd_emst", "hdbscan"):
            parts.append(f"k_pts={self.k_pts}")
        if self.algorithm == "hdbscan":
            parts.append(f"min_cluster_size={self.min_cluster_size}")
        return ";".join(parts)

    def tree_key(self) -> str:
        """Canonical string of the knobs the spatial index depends on.

        Deliberately independent of the algorithm and its metric parameters:
        an ``emst`` job and an ``hdbscan`` job over the same points share one
        cached tree.
        """
        return (f"tree_type={self.config.tree_type};"
                f"bits={self.config.bits};"
                f"high_resolution={self.config.high_resolution}")

    def core_key(self) -> str:
        """Canonical string the core-distance artifact depends on.

        Only ``k_pts`` — cached core distances are stored squared, in the
        caller's point order, so they are independent of the tree
        configuration *and* of which algorithm (``mrd_emst`` or
        ``hdbscan``) asked for them.
        """
        return f"core;k_pts={self.k_pts}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "config": asdict(self.config),
            "k_pts": self.k_pts,
            "min_cluster_size": self.min_cluster_size,
            "priority": self.priority,
        }
        if self.dataset is not None:
            out["dataset"] = self.dataset
        if self.points is not None:
            out["points"] = np.asarray(self.points, dtype=np.float64).tolist()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a plain dict (e.g. a decoded HTTP body)."""
        if not isinstance(data, dict):
            raise InvalidInputError(
                f"job spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        unknown = set(data) - known
        if unknown:
            raise InvalidInputError(
                f"unknown job spec fields: {', '.join(sorted(unknown))}")
        kwargs = dict(data)
        if "points" in kwargs:
            # OverflowError: JSON integers are unbounded, float64 is not —
            # a body like [[1, 1e999-as-int]] must be a 400, not a crashed
            # handler.
            try:
                kwargs["points"] = np.asarray(kwargs["points"],
                                              dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(f"bad inline points: {exc}") from exc
        if "config" in kwargs:
            cfg = kwargs["config"]
            if not isinstance(cfg, dict):
                raise InvalidInputError("config must be a JSON object")
            cfg_known = {f.name for f in fields(SingleTreeConfig)}
            cfg_unknown = set(cfg) - cfg_known
            if cfg_unknown:
                raise InvalidInputError(
                    f"unknown config fields: {', '.join(sorted(cfg_unknown))}")
            kwargs["config"] = SingleTreeConfig(**cfg)
        try:
            spec = cls(**kwargs)
        except TypeError as exc:
            raise InvalidInputError(f"bad job spec: {exc}") from exc
        spec.validate()
        return spec


#: Payload keys excluded from the canonical form: wall-clock ``phases``
#: vary run to run, and ``counters`` / ``rounds`` describe *how* a result
#: was computed (visit counts, divergence traces) — tree backends and
#: bound settings produce identical answers with different work
#: profiles, and the canonical bytes must certify the answer.
_NON_CANONICAL_KEYS = frozenset({"phases", "counters", "rounds"})


def _strip_noncanonical(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_noncanonical(v) for k, v in obj.items()
                if k not in _NON_CANONICAL_KEYS}
    return obj


def canonical_payload_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic byte serialization of a result payload's *answer*.

    Drops the wall-clock ``phases`` dicts plus the ``counters`` /
    ``rounds`` work accounting, keeping the algorithmic output — edges,
    weights, labels, iteration count — which is a pure function of the
    spec, identical across traversal engines, cache temperature and the
    node that served it.  Dumps sorted-key compact JSON; the warm-vs-cold
    tests, the engine-equivalence property tests and the CI smoke checks
    all assert on exactly these bytes.
    """
    return json.dumps(_strip_noncanonical(payload), sort_keys=True,
                      separators=(",", ":")).encode()


def _rounds_to_dicts(rounds: List[RoundStats]) -> List[Dict[str, int]]:
    return [asdict(r) for r in rounds]


def _rounds_from_dicts(rows: List[Dict[str, int]]) -> List[RoundStats]:
    return [RoundStats(**row) for row in rows]


def emst_result_to_dict(result: EMSTResult) -> Dict[str, Any]:
    """Serialize an :class:`EMSTResult` to JSON-safe plain types."""
    return {
        "edges": result.edges.tolist(),
        "weights": result.weights.tolist(),
        "n_points": result.n_points,
        "dimension": result.dimension,
        "n_iterations": result.n_iterations,
        "total_weight": result.total_weight,
        "phases": dict(result.phases),
        "counters": {name: c.as_dict() for name, c in result.counters.items()},
        "rounds": _rounds_to_dicts(result.rounds),
    }


def emst_result_from_dict(data: Dict[str, Any]) -> EMSTResult:
    """Reconstruct an :class:`EMSTResult`; inverse of
    :func:`emst_result_to_dict` (``total_weight`` is derived, not stored)."""
    return EMSTResult(
        edges=np.asarray(data["edges"], dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(data["weights"], dtype=np.float64),
        n_points=int(data["n_points"]),
        dimension=int(data["dimension"]),
        n_iterations=int(data["n_iterations"]),
        phases={k: float(v) for k, v in data["phases"].items()},
        counters={name: CostCounters(**vals)
                  for name, vals in data["counters"].items()},
        rounds=_rounds_from_dicts(data["rounds"]),
    )


def hdbscan_result_to_dict(result: HDBSCANResult) -> Dict[str, Any]:
    """Serialize an :class:`HDBSCANResult` (with its nested EMST)."""
    return {
        "labels": result.labels.tolist(),
        "probabilities": result.probabilities.tolist(),
        "n_clusters": result.n_clusters,
        "noise_fraction": result.noise_fraction,
        "emst": emst_result_to_dict(result.emst),
        "linkage": result.linkage.tolist(),
        "condensed": {
            "parent": result.condensed.parent.tolist(),
            "child": result.condensed.child.tolist(),
            "lambda_val": result.condensed.lambda_val.tolist(),
            "child_size": result.condensed.child_size.tolist(),
            "n_points": result.condensed.n_points,
        },
        "phases": dict(result.phases),
    }


def hdbscan_result_from_dict(data: Dict[str, Any]) -> HDBSCANResult:
    """Reconstruct an :class:`HDBSCANResult`; inverse of
    :func:`hdbscan_result_to_dict` (derived properties are not stored)."""
    cond = data["condensed"]
    return HDBSCANResult(
        labels=np.asarray(data["labels"], dtype=np.int64),
        probabilities=np.asarray(data["probabilities"], dtype=np.float64),
        emst=emst_result_from_dict(data["emst"]),
        linkage=np.asarray(data["linkage"], dtype=np.float64).reshape(-1, 4),
        condensed=CondensedTree(
            parent=np.asarray(cond["parent"], dtype=np.int64),
            child=np.asarray(cond["child"], dtype=np.int64),
            lambda_val=np.asarray(cond["lambda_val"], dtype=np.float64),
            child_size=np.asarray(cond["child_size"], dtype=np.int64),
            n_points=int(cond["n_points"]),
        ),
        phases={k: float(v) for k, v in data["phases"].items()},
    )


class _DecodedOnce:
    """The ``payload`` field of :class:`JobResult`.

    Holds the dict it was given; a result built from stored bytes
    (``encoded``) and no dict decodes them on first read and keeps the
    dict.  The class-level read returns ``None``, the field's default.
    """

    def __get__(self, result: Any, owner: Any = None) -> Any:
        if result is None:
            return None
        payload = result.__dict__.get("_payload")
        if payload is None and result.encoded is not None:
            payload = result.__dict__["_payload"] = result.encoded.decode()
        return payload

    def __set__(self, result: Any, value: Any) -> None:
        result.__dict__["_payload"] = value


@dataclass
class JobResult:
    """Terminal outcome of one job, in transport-ready form.

    ``payload`` holds the serialized algorithm result (see the
    ``*_result_to_dict`` converters) for ``DONE`` jobs, ``error`` the failure
    message for ``FAILED`` ones.  A result the engine produced carries its
    payload's one stored form in ``encoded`` (the JSON bytes, shared with
    the result cache) and decodes ``payload`` from it on first access, once
    per instance, so the dict is the caller's own; deserialize through
    :meth:`emst` / :meth:`hdbscan` for arrays.  :meth:`to_json` serves
    the stored bytes without decoding them.  ``timings``
    includes the scheduler-observed ``queue`` and ``run`` seconds next to
    the algorithm's own phases; ``cache`` records which tiers answered
    (``result_hit`` / ``tree_hit`` / ``core_hit``, plus ``*_disk_hit``
    flags when the artifact came from the persistent store rather than
    memory).  ``mfeatures_per_sec`` is the *serving*
    rate over ``run`` seconds — a cache hit reports the (very high) rate at
    which it was answered, not compute throughput (the scheduler stats
    count only computed features).
    """

    job_id: str
    status: JobStatus
    algorithm: str
    payload: Optional[Dict[str, Any]] = _DecodedOnce()
    error: Optional[str] = None
    timings: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, bool] = field(default_factory=dict)
    mfeatures_per_sec: float = 0.0
    #: Span tree recorded by the observability layer (see
    #: :mod:`repro.obs.trace`), or ``None`` when tracing is off.  Lives
    #: on the result, never inside ``payload`` — like ``timings`` it
    #: describes *how* the job was served, so
    #: :func:`canonical_payload_bytes` is untouched by its presence.
    trace: Optional[Dict[str, Any]] = None
    #: The payload as the result tier stores it; ``None`` for failed jobs
    #: and for results rebuilt by :meth:`from_dict`.
    encoded: Optional[EncodedPayload] = field(default=None, repr=False,
                                              compare=False)

    def _head(self) -> Dict[str, Any]:
        return {"job_id": self.job_id, "status": self.status.value,
                "algorithm": self.algorithm}

    def _tail(self) -> Dict[str, Any]:
        out = {"error": self.error, "timings": dict(self.timings),
               "cache": dict(self.cache),
               "mfeatures_per_sec": self.mfeatures_per_sec}
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form; inverse of :meth:`from_dict`."""
        return {**self._head(), "payload": self.payload, **self._tail()}

    def to_json(self) -> bytes:
        """The JSON body of :meth:`to_dict`: ``json.loads`` of it is
        ``to_dict()``, float for float.

        The stored payload bytes (:class:`~repro.store.EncodedPayload`,
        compact orjson output) are spliced verbatim between the
        ``json.dumps``-encoded envelope fields, so serving a finished job
        never encodes its payload again.
        """
        payload = (self.encoded.body if self.encoded is not None
                   else json.dumps(self.payload).encode())
        head = json.dumps(self._head()).encode()
        tail = json.dumps(self._tail()).encode()
        return b"".join((head[:-1], b', "payload": ', payload, b", ",
                         tail[1:]))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            job_id=data["job_id"],
            status=JobStatus(data["status"]),
            algorithm=data["algorithm"],
            payload=data.get("payload"),
            error=data.get("error"),
            timings={k: float(v)
                     for k, v in data.get("timings", {}).items()},
            cache={k: bool(v) for k, v in data.get("cache", {}).items()},
            mfeatures_per_sec=float(data.get("mfeatures_per_sec", 0.0)),
            trace=data.get("trace"),
        )

    def emst(self) -> EMSTResult:
        """Deserialize the payload of an ``emst`` / ``mrd_emst`` job."""
        if self.payload is None or self.algorithm not in ("emst", "mrd_emst"):
            raise InvalidInputError(
                f"job {self.job_id} carries no EMST payload")
        return emst_result_from_dict(self.payload)

    def hdbscan(self) -> HDBSCANResult:
        """Deserialize the payload of an ``hdbscan`` job."""
        if self.payload is None or self.algorithm != "hdbscan":
            raise InvalidInputError(
                f"job {self.job_id} carries no HDBSCAN payload")
        return hdbscan_result_from_dict(self.payload)
