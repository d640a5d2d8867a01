"""The content-fingerprinting scheme shared by every cache and store tier.

One SHA-256 scheme keys everything content-addressed in this repository:
the in-memory cache tiers (:mod:`repro.store.memory`), the persistent
:class:`~repro.store.disk.DiskStore`, and — because the keys name *content*,
not locations — any future cross-node tier.  The scheme is therefore part of
the **on-disk format**: a change to any function here invalidates every
persisted store, so the exact key bytes are pinned by a test
(``tests/test_store.py::TestFingerprint``) and must only change together
with a store format-version bump.

Scheme
------
``fingerprint_array`` digests an array's dtype string, shape tuple string
and raw buffer bytes (dtype and shape are mixed in so a ``(6,)`` array
cannot collide with a ``(3, 2)`` view of the same buffer).
``combine_fingerprint`` derives a tier key from a precomputed array digest
and a canonical parameter string, separated by a NUL byte so no parameter
string can collide with a digest prefix.  All digests are lowercase hex.
"""

from __future__ import annotations

import hashlib

import numpy as np


def fingerprint_array(points: np.ndarray) -> str:
    """SHA-256 content fingerprint of an array (dtype, shape and bytes).

    The dtype and shape are mixed into the digest so e.g. a ``(6,)`` float
    array cannot collide with a ``(3, 2)`` one over the same buffer.
    """
    points = np.ascontiguousarray(points)
    digest = hashlib.sha256()
    digest.update(str(points.dtype).encode())
    digest.update(str(points.shape).encode())
    digest.update(points.tobytes())
    return digest.hexdigest()


def combine_fingerprint(array_fingerprint: str, params: str) -> str:
    """Cache key from a precomputed array digest and a parameter string.

    Lets callers hash a large point buffer once and derive several keys
    (result tier, tree tier, core tier) from the digest.
    """
    digest = hashlib.sha256()
    digest.update(array_fingerprint.encode())
    digest.update(b"\x00")
    digest.update(params.encode())
    return digest.hexdigest()


def fingerprint(points: np.ndarray, params: str = "") -> str:
    """Cache key for (points content, canonical parameter string)."""
    return combine_fingerprint(fingerprint_array(points), params)


def fingerprint_spec(spec) -> str:
    """Points-content fingerprint of a job spec — the cluster routing key.

    Accepts anything with the :class:`~repro.service.jobs.JobSpec` shape
    (``resolve_points()``); duck typing keeps this module importable
    without the service layer.  The digest is exactly the engine's
    ``points_fp``, so a router hashing specs with this helper pins a point
    set to the same node whose cache tiers (memory and disk) are keyed by
    it — deliberately independent of the algorithm and its parameters, the
    way the tree and core tiers are shared across algorithms.  Derive the
    result-tier key with ``combine_fingerprint(fp, spec.params_key())``
    when an exact-repeat check is needed.
    """
    return fingerprint_array(spec.resolve_points())
