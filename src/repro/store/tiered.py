"""The two-level cache facade: memory tier over an optional disk store.

:class:`TieredCache` is what the serving engine actually talks to.  Lookups
fall through **memory → disk → miss**; a disk hit decodes the blob through
the tier's codec (:mod:`repro.store.blob`) and *promotes* the value into
the memory tier, so a warm-restarted server pays the deserialization once
per artifact, not once per request.  Inserts go to both levels (*spill on
insert*), so anything the memory tier later evicts — or a process restart
wipes — is still one disk read away.  A promoted value is charged its
:func:`~repro.store.memory.estimate_nbytes` size, the same as at insert:
cheap and exact for result payloads (their byte length) and arrays.

Without a :class:`~repro.store.disk.DiskStore` the facade degrades to the
plain in-memory :class:`~repro.store.memory.ContentCache`, which keeps the
engine's code path identical whether persistence is configured or not.
"""

from __future__ import annotations

import io
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import InvalidInputError
from repro.metrics import hit_rate
from repro.obs import MetricsRegistry
from repro.store.blob import codec_for, read_blob
from repro.store.disk import DiskStore
from repro.store.memory import ContentCache

#: ``source`` values :meth:`TieredCache.get_with_source` can report
#: (``"peer"`` joins them when a :attr:`TieredCache.peer_fetch` hook is
#: installed — it is not pre-touched into the lookup counter because a
#: peerless cache never reports it).
SOURCES = ("memory", "disk")


class TieredCache:
    """Memory-over-disk cache for one artifact tier (tree/result/core).

    ``tier`` selects the blob codec and namespaces the disk layout; several
    tiers share one :class:`DiskStore` (and its byte budget) the way the
    engine's tiers share one process.  All methods are thread-safe.
    """

    def __init__(self, tier: str, max_bytes: int,
                 store: Optional[DiskStore] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.tier = tier
        self.memory = ContentCache(max_bytes, name=tier)
        self.store = store
        self._encode, self._decode = codec_for(tier)
        #: Read-through hook consulted after a disk miss: a callable
        #: ``(tier, key) -> Optional[bytes]`` returning a peer's raw blob
        #: bytes (the engine installs one wired to its ``--peer`` set).
        #: The hook owns its own telemetry; a hit here reports source
        #: ``"peer"`` and warms both local levels.
        self.peer_fetch: Optional[Callable[[str, str],
                                           Optional[bytes]]] = None
        self.disk_hits = 0
        self.disk_misses = 0
        self.peer_hits = 0
        self.spill_errors = 0
        self.decode_errors = 0
        self.read_errors = 0
        # Exposition: lookup counters per level/outcome and store I/O
        # latency.  All engine tiers share one registry, so these are
        # labeled children of shared families.  The plain int counters
        # above remain the source of truth for `stats()` (and the tests
        # pinning it); the registry mirrors them for `/v1/metrics`.
        registry = registry if registry is not None \
            else MetricsRegistry(enabled=False)
        lookups = registry.counter(
            "repro_cache_lookups_total",
            "Cache lookups by tier, level (memory/disk) and outcome.",
            labels=("tier", "level", "outcome"))
        self._lookup = {
            (level, outcome): lookups.labels(tier=tier, level=level,
                                             outcome=outcome)
            for level in SOURCES for outcome in ("hit", "miss")}
        self._io_h = registry.histogram(
            "repro_store_io_seconds",
            "Latency of disk-store reads and writes by tier and op.",
            labels=("tier", "op"))
        self._io_get = self._io_h.labels(tier=tier, op="get")
        self._io_put = self._io_h.labels(tier=tier, op="put")

    def __len__(self) -> int:
        return len(self.memory)

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key`` from either level, or ``None``."""
        return self.get_with_source(key)[0]

    def get_with_source(self, key: str
                        ) -> Tuple[Optional[Any], Optional[str]]:
        """``(value, "memory" | "disk")`` on a hit, ``(None, None)`` else."""
        value = self.memory.get(key)
        if value is not None:
            self._lookup[("memory", "hit")].inc()
            return value, "memory"
        self._lookup[("memory", "miss")].inc()
        if self.store is None:
            return self._peer_read_through(key)
        started = time.perf_counter()
        try:
            blob = self.store.get(self.tier, key)
        except OSError:  # an unreadable volume is a miss, not a failure
            self.read_errors += 1
            self.disk_misses += 1
            self._lookup[("disk", "miss")].inc()
            return self._peer_read_through(key)
        finally:
            self._io_get.observe(time.perf_counter() - started)
        if blob is None:
            self.disk_misses += 1
            self._lookup[("disk", "miss")].inc()
            return self._peer_read_through(key)
        try:
            value = self._decode(*blob)
        except Exception:  # noqa: BLE001 — a bad artifact must read as a
            # miss (the job recomputes), never fail the request.
            self.decode_errors += 1
            self.disk_misses += 1
            self._lookup[("disk", "miss")].inc()
            return self._peer_read_through(key)
        self.disk_hits += 1
        self._lookup[("disk", "hit")].inc()
        self.memory.put(key, value)
        return value, "disk"

    def _peer_read_through(self, key: str
                           ) -> Tuple[Optional[Any], Optional[str]]:
        """Last-resort lookup level: a replica peer's artifact surface.

        Fetched bytes are validated by decoding, persisted locally (same
        crash-safe path as a spill — the next lookup is a plain disk hit)
        and promoted into memory.  Any failure degrades to a miss; the
        job recomputes exactly as it would have without peers.
        """
        fetch = self.peer_fetch
        if fetch is None:
            return None, None
        data = fetch(self.tier, key)
        if data is None:
            return None, None
        try:
            blob = read_blob(io.BytesIO(data))
            value = self._decode(*blob)
        except Exception:  # noqa: BLE001 — a bad peer blob is a miss
            self.decode_errors += 1
            return None, None
        if self.store is not None:
            try:
                self.store.put_blob_bytes(self.tier, key, data)
            except (InvalidInputError, OSError):
                self.spill_errors += 1
        self.peer_hits += 1
        self.memory.put(key, value)
        return value, "peer"

    def put(self, key: str, value: Any,
            nbytes: Optional[int] = None) -> bool:
        """Insert into memory and spill to disk; returns the memory verdict.

        ``nbytes`` overrides the memory tier's size estimate.  A failed
        spill (full disk, permission error) is counted, not raised: the
        serving path must not fail a job over a cold-cache-on-restart
        degradation.
        """
        stored = self.memory.put(key, value, nbytes)
        if self.store is not None:
            started = time.perf_counter()
            try:
                meta, arrays = self._encode(value)
                self.store.put(self.tier, key, meta, arrays)
            except OSError:
                self.spill_errors += 1
            finally:
                self._io_put.observe(time.perf_counter() - started)
        return stored

    def size_of(self, key: str) -> Optional[int]:
        """The memory tier's byte estimate for ``key`` (no recency effect)."""
        return self.memory.size_of(key)

    def clear(self) -> int:
        """Drop the memory level only; returns how many entries it held.

        The disk level is shared between tiers, so it is cleared once at
        the store (see :meth:`DiskStore.clear` / ``Engine.flush``).
        """
        dropped = len(self.memory)
        self.memory.clear()
        return dropped

    def stats(self) -> Dict[str, Any]:
        """Memory-tier stats plus a ``disk`` sub-document, JSON-safe."""
        out = self.memory.stats()
        out["disk"] = {
            "enabled": self.store is not None,
            "hits": self.disk_hits,
            "misses": self.disk_misses,
            "hit_rate": hit_rate(self.disk_hits, self.disk_misses),
            "spill_errors": self.spill_errors,
            "decode_errors": self.decode_errors,
            "read_errors": self.read_errors,
        }
        out["peer_hits"] = self.peer_hits
        return out
