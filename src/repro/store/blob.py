"""Flat-blob serialization for persisted artifacts.

A *blob* is a single ``.npz`` file holding named ndarrays plus one JSON
metadata document (stored as a ``uint8`` byte array under ``__meta__``, so
the container stays pure-array and loads with ``allow_pickle=False``).
Everything the serving engine caches flattens to this shape:

* a **tree** is its sort order, one int32 array (int64 only from 2**31
  points on): the build rebuilds the rest from the points
  (:func:`repro.core.emst.build_tree` with ``order=``), and the tree
  tier's key names the points and the tree configuration, so this module
  needs to know nothing about trees;
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
from typing import Any, BinaryIO, Dict, Tuple

import numpy as np
import orjson

from repro.errors import InvalidInputError
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
#:    a ``payload`` array instead of the payload dict in its metadata;
#: 4. order-only trees — a tree blob holds the tree's ``order`` alone
#:    instead of every tree array.
BLOB_FORMAT = 4

#: Formats :func:`read_blob` still accepts.  An older tree blob decodes
#: through its own ``order`` when its leaf arrays, if any, describe one
#: point per leaf (see :func:`decode_tree`); a format-1/2 result blob is
#: re-encoded once when decoded.
COMPATIBLE_FORMATS = (1, 2, 3, 4)

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


# -------------------------------------------------------------------- codecs

def narrow_order(order: np.ndarray) -> np.ndarray:
    """A tree's sort order as the tree tier holds it: int32, 4 bytes per
    point, unless ``n >= 2**31`` points would wrap it (then int64)."""
    return order.astype(np.int32 if order.size < 2 ** 31 else np.int64,
                        copy=False)


def encode_tree(value: Dict[str, Any]) -> Tuple[Meta, Arrays]:
    """Codec for the tree tier: ``{"order": (n,) int32}``, the order as
    :func:`narrow_order` holds it.

    A build from the order records the cold build's work counters, so
    none are stored.
    """
    return {"tier": "tree"}, {"order": np.ascontiguousarray(value["order"])}


def decode_tree(meta: Meta, arrays: Arrays) -> Dict[str, Any]:
    """Inverse of :func:`encode_tree`.

    The order must be a non-empty 1-D integer permutation of any integer
    dtype (int64 blobs written before orders were narrowed decode too),
    and is returned as :func:`narrow_order` holds it; whether it fits a
    job's points is the build's check.  Blobs of formats 1-3 held
    every tree array and decode through their ``order``.  Those written
    while trees could block several points per leaf carry ``leaf_start`` /
    ``leaf_count`` arrays; they decode when those are ``arange`` /
    ``ones`` (one point per leaf), and any other leaf layout raises
    :class:`InvalidInputError`.  The ``counters`` older blobs carry in
    their metadata are ignored.
    """
    order = arrays["order"]
    if (order.ndim != 1 or order.size == 0 or order.dtype.kind not in "iu"
            or not np.array_equal(np.sort(order), np.arange(order.size))):
        raise InvalidInputError(
            "tree blob order is not a permutation of its points")
    n = order.size
    for name, one_point in (("leaf_start", np.arange(n)),
                            ("leaf_count", np.ones(n))):
        if name in arrays and not np.array_equal(arrays[name], one_point):
            raise InvalidInputError(
                f"tree blob {name} is not one point per leaf")
    return {"order": narrow_order(order)}


@dataclass(frozen=True)
class EncodedPayload:
    """A finished job's payload in its one stored form.

    ``body`` is the payload as compact ``orjson`` output, made once when
    the job computes; a payload holding NaN or ±Infinity, which orjson
    would write as ``null``, is encoded by ``json.dumps`` instead, which
    keeps them as ``NaN``/``Infinity``.  Either way ``json.loads(body)``
    is the payload, float for float.  The result tier, coalesced
    followers and retained job records share this object, and the HTTP
    front end splices ``body`` into every response for the job without
    decoding it.  Beside it sit the few small fields a cache hit reads:
    the algorithm ``phases`` (replayed as ``algo_*`` timings), the problem
    shape (for ``mfeatures_per_sec``) and the work ``counters`` summed
    over phases (for the ``executed`` trace span).
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
        body = orjson.dumps(payload)
        if b"null" in body:  # payloads hold no None: a non-finite float
            body = json.dumps(payload).encode()
        # An exact-size copy: held as orjson returns it, a body costs
        # more resident memory than its length.
        return cls(body=bytes(memoryview(body)),
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
