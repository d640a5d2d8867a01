"""Flat-blob serialization for persisted artifacts.

A *blob* is a single ``.npz`` file holding named ndarrays plus one JSON
metadata document (stored as a ``uint8`` byte array under ``__meta__``, so
the container stays pure-array and loads with ``allow_pickle=False``).
Everything the serving engine caches flattens to this shape:

* a **BVH** becomes the dict of arrays :func:`bvh_to_state` returns (the
  canonical serialization, which :mod:`repro.service.executor` hands the
  engine for every tree it builds), so a tree written by one process or
  node is readable by any other.  The memory tier holds the smaller
  :func:`compact_tree_state` form of it;
* a **result** is an :class:`EncodedPayload`: the payload's JSON bytes
  travel as one ``uint8`` array, exactly as the cold job encoded them, and
  the few small fields a cache hit reads ride in the metadata;
* a **core-distance artifact** is one float64 array (squared core
  distances in the submitting caller's point order — deliberately
  tree-independent, see :func:`encode_core`) plus its phase counters.

The per-tier ``encode_*`` / ``decode_*`` pairs below are the codecs the
:class:`~repro.store.tiered.TieredCache` uses to spill and warm values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from repro.bvh.build import karras_hierarchy
from repro.bvh.bvh import BVH
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.errors import InvalidInputError
from repro.geometry.morton import morton_encode, morton_encode_high
from repro.kokkos.counters import CostCounters

#: Reserved array name carrying the JSON metadata bytes inside a blob.
META_KEY = "__meta__"

#: Blob container format version, recorded in every blob's metadata.  Bump
#: together with any change to the fingerprint scheme or codec layouts.
#: Version history:
#:
#: 1. original layout (one point per BVH leaf, no leaf arrays);
#: 2. blocked leaves — tree blobs add two leaf arrays and the blocking
#:    factor to their metadata (trees have one point per leaf again, and
#:    their blobs are written without them);
#: 3. encoded results — a result blob stores the payload's JSON bytes as
#:    a ``payload`` array instead of the payload dict in its metadata.
BLOB_FORMAT = 3

#: Formats :func:`read_blob` still accepts.  A tree blob's leaf arrays,
#: when it has them, must describe one point per leaf (see
#: :func:`decode_tree`); a format-1/2 result blob is re-encoded once when
#: decoded.
COMPATIBLE_FORMATS = (1, 2, 3)

Meta = Dict[str, Any]
Arrays = Dict[str, np.ndarray]


# ------------------------------------------------------------------ container

def write_blob(file: BinaryIO, meta: Meta, arrays: Arrays) -> None:
    """Serialize ``(meta, arrays)`` into ``file`` as an uncompressed npz."""
    if META_KEY in arrays:
        raise InvalidInputError(f"array name {META_KEY!r} is reserved")
    meta = dict(meta)
    meta["format"] = BLOB_FORMAT
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                               dtype=np.uint8)
    np.savez(file, **{META_KEY: meta_bytes}, **arrays)


def read_blob(path: str) -> Tuple[Meta, Arrays]:
    """Load a blob; raises on a truncated, corrupt or alien file.

    Any failure surfaces as :class:`InvalidInputError` so the store can
    quarantine the file uniformly (``zipfile``/``numpy`` raise a zoo of
    exception types for damaged inputs).
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if META_KEY not in data.files:
                raise InvalidInputError(f"{path}: blob carries no metadata")
            meta = json.loads(bytes(data[META_KEY]).decode())
            arrays = {name: data[name] for name in data.files
                      if name != META_KEY}
    except InvalidInputError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, ValueError, OSError, ...
        raise InvalidInputError(f"{path}: unreadable blob ({exc})") from exc
    if meta.get("format") not in COMPATIBLE_FORMATS:
        raise InvalidInputError(
            f"{path}: blob format {meta.get('format')!r}, "
            f"expected one of {COMPATIBLE_FORMATS}")
    return meta, arrays


# ----------------------------------------------------------------- BVH state

def bvh_to_state(tree: BVH) -> Dict[str, Any]:
    """Flatten a :class:`BVH` to a dict of arrays (references, no copies).

    This is the canonical serialized form of a tree: the engine's tree
    tier keeps it (as :func:`compact_tree_state`), and :func:`encode_tree`
    writes exactly these arrays to disk — plain ndarrays and a list of
    ndarrays store efficiently (raw buffers, no per-element boxing), and
    reconstruction is allocation-free.
    """
    return {
        "points": tree.points, "order": tree.order, "codes": tree.codes,
        "left": tree.left, "right": tree.right, "parent": tree.parent,
        "lo": tree.lo, "hi": tree.hi, "schedule": list(tree.schedule),
        "codes_lo": tree.codes_lo,
    }


def bvh_from_state(state: Dict[str, Any]) -> BVH:
    """Rebuild a :class:`BVH` from :func:`bvh_to_state` output."""
    return BVH(**state)


def _parents(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The parent array the Karras build derives from the children."""
    inner = np.arange(left.shape[0])
    parent = np.full(2 * left.shape[0] + 1, -1, dtype=np.int64)
    parent[left] = inner
    parent[right] = inner
    return parent


def _same(a: Any, b: np.ndarray) -> bool:
    """Whether ``a`` is an array with exactly the dtype, shape and bytes
    of ``b`` (bytes, not values: ``-0.0 == 0.0``)."""
    return (isinstance(a, np.ndarray) and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a.reshape(-1).view(np.uint8),
                               b.reshape(-1).view(np.uint8)))


def _same_levels(a: Any, b: List[np.ndarray]) -> bool:
    """Whether schedule ``a`` has ``b``'s levels, each with the dtype,
    shape and bytes of ``b``'s (compared in one piece)."""
    return (len(a) == len(b) and all(
        isinstance(x, np.ndarray) and x.dtype == y.dtype
        and x.shape == y.shape for x, y in zip(a, b))
        and (not b or _same(np.concatenate(a), np.concatenate(b))))


def _boxes(state: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray]:
    """The node boxes the refit builds from ``state``'s points, children
    and schedule."""
    return refit_bounds(state["points"], state["left"], state["right"],
                        state["schedule"])


def _codes(points: np.ndarray, codes_lo: Optional[np.ndarray]
           ) -> np.ndarray:
    """The codes (high words when ``codes_lo`` is set) ``build_bvh`` gives
    sorted ``points`` at full resolution.  The grid bounds do not depend
    on point order, so the codes of the sorted points are the sorted
    codes."""
    if codes_lo is None:
        return morton_encode(points)
    return morton_encode_high(points)[0]


def _hierarchy(state: Dict[str, Any]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Karras' ``(left, right, parent)`` over ``state``'s codes, as
    ``build_bvh`` builds them; unsorted codes raise
    :class:`InvalidInputError`, as in the build."""
    return karras_hierarchy(state["codes"], codes_lo=state["codes_lo"])


def _hierarchy_rebuilds(state: Dict[str, Any]) -> bool:
    """Whether the codes and the children rebuild bit for bit from the
    points: a full-resolution Morton encode, then Karras.  A tree built
    with ``bits=`` keeps them (the state does not record ``bits``), and
    so does a kd-tree, whose codes are a synthetic ``arange``."""
    points, codes, codes_lo = state["points"], state["codes"], \
        state["codes_lo"]
    n, dim = points.shape
    if dim not in (2, 3) or not all(
            isinstance(c, np.ndarray) and c.shape == (n,)
            for c in (codes, codes_lo) if c is not None):
        return False
    left, right, _ = _hierarchy(state)
    return (_same(state["left"], left) and _same(state["right"], right)
            and _same(codes, _codes(points, codes_lo)))


def compact_tree_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """``state`` without what :func:`expand_tree_state` rebuilds exactly.

    The tree tier's memory level holds this form.  The Morton codes
    follow from the points, the children and the parent array from the
    codes (Karras), the level schedule from the children, and every node
    box from the points by the refit.  A tree is then held as its points
    and order (and ``codes_lo`` for 128-bit codes, which marks them),
    ~1/6 of its bytes.  Each part is dropped only when its rebuild matches
    it bit for bit; codes with the children, as one.
    """
    out = dict(state)
    left, right = state["left"], state["right"]
    n_inner = left.shape[0]
    if n_inner > 0:
        # First, because the schedule's rebuild range-checks every child.
        schedule = bottom_up_schedule(left, right, n_inner + 1)
        if _same_levels(state["schedule"], schedule):
            out["schedule"] = None
        lo, hi = _boxes(state)
        if _same(state["lo"], lo) and _same(state["hi"], hi):
            out["lo"] = out["hi"] = None
        if _hierarchy_rebuilds(state):
            out["codes"] = out["left"] = out["right"] = None
    if _same(state["parent"], _parents(left, right)):
        out["parent"] = None
    return out


def expand_tree_state(compact: Dict[str, Any]) -> Dict[str, Any]:
    """The full :func:`bvh_to_state` form of a :func:`compact_tree_state`
    (new arrays for the rebuilt parts, references for the rest)."""
    state = dict(compact)
    parent = None
    if state["left"] is None:
        state["codes"] = _codes(state["points"], state["codes_lo"])
        state["left"], state["right"], parent = _hierarchy(state)
    left, right = state["left"], state["right"]
    if state["parent"] is None:
        state["parent"] = (_parents(left, right) if parent is None
                           else parent)
    if state["schedule"] is None:
        state["schedule"] = bottom_up_schedule(left, right,
                                               left.shape[0] + 1)
    if state["lo"] is None:
        state["lo"], state["hi"] = _boxes(state)
    return state


# -------------------------------------------------------------------- codecs

def encode_tree(value: Dict[str, Any]) -> Tuple[Meta, Arrays]:
    """Codec for the tree tier: ``{"state": compact tree state, "counters":
    dict | None}`` (see :func:`compact_tree_state`); the blob holds the
    full state.

    The cached construction-phase counters ride in the metadata so a warm
    tree replays the exact work numbers of its original build — keeping
    warm results byte-identical to cold ones.
    """
    state = expand_tree_state(value["state"])
    arrays = {name: state[name]
              for name in ("points", "order", "codes",
                           "left", "right", "parent", "lo", "hi")}
    for level, step in enumerate(state["schedule"]):
        arrays[f"schedule_{level:03d}"] = step
    if state["codes_lo"] is not None:
        arrays["codes_lo"] = state["codes_lo"]
    meta = {"tier": "tree", "n_schedule": len(state["schedule"]),
            "counters": value.get("counters")}
    return meta, arrays


def decode_tree(meta: Meta, arrays: Arrays) -> Dict[str, Any]:
    """Inverse of :func:`encode_tree`.

    Blobs written while trees could block several points per leaf carry
    ``leaf_start`` / ``leaf_count`` arrays; they decode when those are
    ``arange`` / ``ones`` (one point per leaf), and any other leaf layout
    raises :class:`InvalidInputError`.
    """
    n = arrays["points"].shape[0]
    for name, one_point in (("leaf_start", np.arange(n, dtype=np.int64)),
                            ("leaf_count", np.ones(n, dtype=np.int64))):
        if name in arrays and not _same(arrays[name], one_point):
            raise InvalidInputError(
                f"tree blob {name} is not one point per leaf")
    schedule = [arrays[f"schedule_{level:03d}"]
                for level in range(int(meta["n_schedule"]))]
    state = bvh_to_state(BVH(
        points=arrays["points"], order=arrays["order"],
        codes=arrays["codes"], left=arrays["left"], right=arrays["right"],
        parent=arrays["parent"], lo=arrays["lo"], hi=arrays["hi"],
        schedule=schedule, codes_lo=arrays.get("codes_lo")))
    return {"state": compact_tree_state(state),
            "counters": meta.get("counters")}


@dataclass(frozen=True)
class EncodedPayload:
    """A finished job's payload in its one stored form.

    ``body`` is ``json.dumps(payload).encode()``, made once when the job
    computes.  The result tier, coalesced followers and retained job
    records share this object, and the HTTP front end splices ``body``
    into every response for the job without decoding it.  Beside it sit
    the few small fields a cache hit reads: the algorithm ``phases``
    (replayed as ``algo_*`` timings), the problem shape (for
    ``mfeatures_per_sec``) and the work ``counters`` summed over phases
    (for the ``executed`` trace span).
    """

    body: bytes = field(repr=False)
    phases: Dict[str, float]
    n_points: int
    dimension: int
    counters: Dict[str, int]

    @classmethod
    def encode(cls, payload: Dict[str, Any]) -> "EncodedPayload":
        """Encode a JSON-safe payload (``emst_result_to_dict`` or
        ``hdbscan_result_to_dict`` output)."""
        inner = payload.get("emst", payload)
        totals = CostCounters.summed((inner.get("counters") or {}).values())
        return cls(body=json.dumps(payload).encode(),
                   phases=dict(payload.get("phases", {})),
                   n_points=int(inner["n_points"]),
                   dimension=int(inner["dimension"]),
                   counters=totals.as_dict())

    def decode(self) -> Dict[str, Any]:
        """The payload dict, freshly parsed from ``body``."""
        return json.loads(self.body)

    @property
    def nbytes(self) -> int:
        """The stored size: exactly the encoded payload's byte length."""
        return len(self.body)


def encode_result(value: EncodedPayload) -> Tuple[Meta, Arrays]:
    """Codec for the result tier: the payload bytes as a ``uint8`` array,
    the small fields in the metadata.

    ``phases`` and ``counters`` are stored as ``[name, value]`` pairs: the
    metadata is dumped with sorted keys, and a disk hit must replay them
    in the order the cold job reported them.
    """
    meta = {"tier": "result", "phases": list(value.phases.items()),
            "n_points": value.n_points, "dimension": value.dimension,
            "counters": list(value.counters.items())}
    return meta, {"payload": np.frombuffer(value.body, dtype=np.uint8)}


def decode_result(meta: Meta, arrays: Arrays) -> EncodedPayload:
    """Inverse of :func:`encode_result`.

    Formats 1 and 2 kept the payload dict itself in the (sorted-key)
    metadata; such a blob is encoded here, once per decode.
    """
    if "payload" in meta:
        return EncodedPayload.encode(meta["payload"])
    return EncodedPayload(body=arrays["payload"].tobytes(),
                          phases=dict(meta["phases"]),
                          n_points=int(meta["n_points"]),
                          dimension=int(meta["dimension"]),
                          counters=dict(meta["counters"]))


def encode_core(value: Dict[str, Any]) -> Tuple[Meta, Arrays]:
    """Codec for the core-distance tier.

    ``value`` is ``{"core_sq": (n,) float64, "counters": dict | None}``
    with the squared core distances **in the caller's point order** — not
    the BVH's sorted order — so the artifact depends only on
    ``(points, k_pts)`` and one entry serves every tree configuration.
    """
    return ({"tier": "core", "counters": value.get("counters")},
            {"core_sq": np.ascontiguousarray(value["core_sq"])})


def decode_core(meta: Meta, arrays: Arrays) -> Dict[str, Any]:
    """Inverse of :func:`encode_core`."""
    return {"core_sq": arrays["core_sq"], "counters": meta.get("counters")}


#: tier name -> (encode, decode); the registry the TieredCache tiers and the
#: store's self-checks share.
CODECS = {
    "tree": (encode_tree, decode_tree),
    "result": (encode_result, decode_result),
    "core": (encode_core, decode_core),
}


def codec_for(tier: str) -> Tuple[Any, Any]:
    """The ``(encode, decode)`` pair registered for ``tier``."""
    try:
        return CODECS[tier]
    except KeyError:
        raise InvalidInputError(
            f"no codec for tier {tier!r}; known: {', '.join(sorted(CODECS))}")
