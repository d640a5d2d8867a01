"""The in-memory cache tier: a thread-safe, byte-bounded LRU.

:class:`ContentCache` is the top tier of every
:class:`~repro.store.tiered.TieredCache`: keys are content fingerprints
(:mod:`repro.store.fingerprint`), values are live Python objects, and
eviction is least-recently-used under a byte budget with sizes from
:func:`estimate_nbytes`.  Hit/miss counters report through
:func:`repro.metrics.hit_rate` so cache statistics use the same rate
conventions as the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

import numpy as np

from repro.metrics import hit_rate
from repro.store.blob import EncodedPayload


def estimate_nbytes(value: Any) -> int:
    """Approximate heap footprint of a cached value, in bytes.

    Counts array buffers and encoded result payloads exactly and walks
    containers and dataclasses (covering :class:`~repro.bvh.bvh.BVH`);
    everything else falls back to ``sys.getsizeof``.
    """
    if isinstance(value, (np.ndarray, EncodedPayload)):
        return int(value.nbytes)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(estimate_nbytes(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return sum(estimate_nbytes(k) + estimate_nbytes(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_nbytes(item) for item in value)
    return int(sys.getsizeof(value))


class ContentCache:
    """A thread-safe LRU cache bounded by total byte size.

    ``get`` refreshes recency; ``put`` evicts least-recently-used entries
    until the new value fits.  A value larger than the whole budget is
    rejected (counted in ``oversized``) rather than flushing the cache.
    """

    def __init__(self, max_bytes: int, *, name: str = "cache") -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.name = name
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._current_bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversized = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key`` (refreshing recency) or ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: str, value: Any,
            nbytes: Optional[int] = None) -> bool:
        """Insert ``value`` under ``key``; returns whether it was stored.

        ``nbytes`` overrides the :func:`estimate_nbytes` size estimate.
        """
        size = int(nbytes) if nbytes is not None else estimate_nbytes(value)
        with self._lock:
            if size > self.max_bytes:
                self.oversized += 1
                return False
            if key in self._entries:
                self._current_bytes -= self._sizes[key]
                del self._entries[key]
            while self._current_bytes + size > self.max_bytes:
                old_key, _ = self._entries.popitem(last=False)
                self._current_bytes -= self._sizes.pop(old_key)
                self.evictions += 1
            self._entries[key] = value
            self._sizes[key] = size
            self._current_bytes += size
            return True

    def size_of(self, key: str) -> Optional[int]:
        """The stored byte estimate for ``key`` (no recency effect)."""
        with self._lock:
            return self._sizes.get(key)

    def keys(self) -> List[str]:
        """Keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._current_bytes = 0

    @property
    def current_bytes(self) -> int:
        """Total estimated bytes of the stored entries."""
        with self._lock:
            return self._current_bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache."""
        return hit_rate(self.hits, self.misses)

    def stats(self) -> Dict[str, Any]:
        """Counters and occupancy, JSON-safe."""
        with self._lock:
            return {
                "name": self.name,
                "entries": len(self._entries),
                "current_bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": hit_rate(self.hits, self.misses),
                "evictions": self.evictions,
                "oversized": self.oversized,
            }
