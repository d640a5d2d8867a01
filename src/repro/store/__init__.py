"""Persistent content-addressed artifact store for the serving engine.

The paper's headline win is amortizing ``T_tree`` within one run; the
service's in-memory tiers amortize it across requests; this package
amortizes it across **process lifetimes** (and, because keys are content
fingerprints and therefore location-independent, across nodes): trees
(each held as its sort order, from which a hit rebuilds it without
sorting), result payloads and core-distance arrays spill to disk on
insert and warm back on the first request after a restart.

Layers
------
``repro.store.fingerprint``  the SHA-256 content-keying scheme (pinned)
``repro.store.memory``       the in-memory byte-bounded LRU tier
``repro.store.blob``         flat ``.npz`` blob format + per-tier codecs
``repro.store.disk``         crash-safe on-disk store with a JSONL index
``repro.store.tiered``       the memory → disk → miss facade

Example
-------
>>> import numpy as np, tempfile
>>> from repro.store import DiskStore, TieredCache, fingerprint
>>> root = tempfile.mkdtemp()
>>> cache = TieredCache("core", 1 << 20, DiskStore(root))
>>> key = fingerprint(np.zeros((4, 2)), "core;k_pts=2")
>>> cache.put(key, {"core_sq": np.ones(4), "counters": None})
True
>>> cold = TieredCache("core", 1 << 20, DiskStore(root))  # "restart"
>>> cold.get_with_source(key)[1]
'disk'
"""

from repro.store.blob import (
    BLOB_FORMAT,
    EncodedPayload,
    codec_for,
    narrow_order,
    read_blob,
    write_blob,
)
from repro.store.disk import DEFAULT_STORE_BYTES, DiskStore
from repro.store.fingerprint import (
    combine_fingerprint,
    fingerprint,
    fingerprint_array,
    fingerprint_spec,
)
from repro.store.memory import ContentCache, estimate_nbytes
from repro.store.tiered import TieredCache

__all__ = [
    "BLOB_FORMAT",
    "DEFAULT_STORE_BYTES",
    "ContentCache",
    "DiskStore",
    "EncodedPayload",
    "TieredCache",
    "codec_for",
    "combine_fingerprint",
    "estimate_nbytes",
    "fingerprint",
    "fingerprint_array",
    "fingerprint_spec",
    "narrow_order",
    "read_blob",
    "write_blob",
]
