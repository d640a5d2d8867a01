"""Persistent content-addressed artifact store with crash-safe writes.

:class:`DiskStore` keeps one blob file per cached artifact under a
two-level hash-prefix directory layout::

    <root>/
      index.jsonl                     append-only recency/size journal
      objects/<tier>/<aa>/<bb>/<key>.npz
      quarantine/                     blobs that failed to load

where ``<key>`` is the artifact's content fingerprint (see
:mod:`repro.store.fingerprint`) and ``<aa>``/``<bb>`` its first two hex-pair
prefixes — the classic git-object layout, keeping directories small at
millions of entries.

Durability model
----------------
* **Writes are atomic**: a blob is serialized to a temp file in the target
  directory, fsync'ed, then ``os.replace``'d into its final name.  A crash
  mid-write leaves only a ``*.tmp*`` file, never a half-written blob under
  a live name.
* **The index is a journal**: every ``put``/``touch``/``evict`` appends one
  JSON line.  On open the journal is replayed to rebuild the byte-bounded
  LRU order, then compacted; a torn final line (crash mid-append) is
  skipped.
* **Opening self-heals**: orphaned temp files are deleted, entries whose
  blob is missing are dropped, blobs whose size disagrees with the journal
  are quarantined, and unindexed blobs (crash between rename and journal
  append) are removed.  A blob that replays fine but fails to *load* later
  is quarantined at read time and reported as a miss.

Eviction is least-recently-used under ``max_bytes`` of blob-file bytes,
mirroring :class:`~repro.store.memory.ContentCache` one tier down.  The
store assumes a single writer process (the serving engine); multi-node
sharing is read-compatible by design but dispatch is a later PR.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidInputError
from repro.store.blob import Arrays, Meta, read_blob, write_blob

#: Default byte budget: a serving node's disk is cheap relative to recompute.
DEFAULT_STORE_BYTES = 1 << 30

#: Journal compaction threshold: rewrite once the journal holds this many
#: more lines than live entries (touch records accumulate per disk hit).
_COMPACT_SLACK = 1024

_INDEX_NAME = "index.jsonl"
_OBJECTS_DIR = "objects"
_QUARANTINE_DIR = "quarantine"


class DiskStore:
    """A byte-bounded, crash-safe blob store keyed by content fingerprint.

    All methods are thread-safe.  ``get``/``put`` address an artifact by
    ``(tier, key)``; tiers partition the directory layout and the stats,
    while keys within a tier are content fingerprints and never collide
    across tiers by construction (each tier derives its keys with a
    distinct canonical parameter string).
    """

    def __init__(self, root: str,
                 max_bytes: int = DEFAULT_STORE_BYTES) -> None:
        if max_bytes <= 0:
            raise InvalidInputError(
                f"max_bytes must be positive, got {max_bytes}")
        self.root = os.path.abspath(root)
        self.max_bytes = int(max_bytes)
        self._objects = os.path.join(self.root, _OBJECTS_DIR)
        self._quarantine = os.path.join(self.root, _QUARANTINE_DIR)
        self._index_path = os.path.join(self.root, _INDEX_NAME)
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._quarantine, exist_ok=True)
        self._lock = threading.RLock()
        #: (tier, key) -> blob file size, in LRU order (oldest first).
        self._entries: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self._current_bytes = 0
        self._journal_lines = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.oversized = 0
        self.corrupt = 0
        self.journal_errors = 0
        self.healed: Dict[str, int] = {}
        self._open()

    # ------------------------------------------------------------------ paths

    def _path(self, tier: str, key: str) -> str:
        return os.path.join(self._objects, tier, key[:2], key[2:4],
                            f"{key}.npz")

    # ----------------------------------------------------------- open & heal

    def _open(self) -> None:
        healed = {"bad_journal_lines": 0, "missing_blobs": 0,
                  "size_mismatches": 0, "orphan_tmp": 0, "unindexed": 0}
        entries: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        if os.path.exists(self._index_path):
            with open(self._index_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        record = json.loads(line)
                        op = record["op"]
                        ident = (record["tier"], record["key"])
                    except (json.JSONDecodeError, KeyError, TypeError):
                        healed["bad_journal_lines"] += 1
                        continue
                    if op == "put":
                        entries[ident] = int(record.get("nbytes", 0))
                        entries.move_to_end(ident)
                    elif op == "touch" and ident in entries:
                        entries.move_to_end(ident)
                    elif op == "evict":
                        entries.pop(ident, None)
        for (tier, key) in list(entries):
            path = self._path(tier, key)
            try:
                size = os.path.getsize(path)
            except OSError:
                del entries[(tier, key)]
                healed["missing_blobs"] += 1
                continue
            if size != entries[(tier, key)]:
                # A size the journal disagrees with means a torn or tampered
                # blob; keep the evidence out of the hot path.
                self._quarantine_file(path)
                del entries[(tier, key)]
                healed["size_mismatches"] += 1
        # A crash inside _compact leaves an index.jsonl.XXXXXX temp next to
        # the journal; sweep those with the rest of the orphans.
        for name in os.listdir(self.root):
            if name.startswith(_INDEX_NAME + "."):
                os.unlink(os.path.join(self.root, name))
                healed["orphan_tmp"] += 1
        indexed_paths = {self._path(tier, key) for tier, key in entries}
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if not name.endswith(".npz"):
                    # A crashed writer's temp file: never a live artifact.
                    os.unlink(path)
                    healed["orphan_tmp"] += 1
                elif path not in indexed_paths:
                    # Renamed into place but the journal append never
                    # happened; without a journal entry its recency and
                    # accounting are unknown — cheaper to re-miss than to
                    # trust it.
                    os.unlink(path)
                    healed["unindexed"] += 1
        self._entries = entries
        self._current_bytes = sum(entries.values())
        self.healed = healed
        self._compact()

    def _quarantine_file(self, path: str) -> None:
        target = os.path.join(self._quarantine, os.path.basename(path))
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    # --------------------------------------------------------------- journal

    def _append(self, record: Dict[str, Any]) -> None:
        with open(self._index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._journal_lines += 1
        if self._journal_lines > len(self._entries) + _COMPACT_SLACK:
            self._compact()

    def _append_best_effort(self, record: Dict[str, Any]) -> None:
        """Journal append that degrades instead of raising.

        Used on the *read* path: a full or read-only volume must cost at
        most stale recency (or a re-discovered corrupt blob after restart),
        never fail the request that merely looked something up.  The write
        path keeps strict appends — its callers already absorb ``OSError``
        as a failed spill.
        """
        try:
            self._append(record)
        except OSError:
            self.journal_errors += 1

    def _compact(self) -> None:
        """Atomically rewrite the journal as one ``put`` line per entry."""
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=_INDEX_NAME + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for (tier, key), nbytes in self._entries.items():
                    fh.write(json.dumps(
                        {"op": "put", "tier": tier, "key": key,
                         "nbytes": nbytes}, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._journal_lines = len(self._entries)

    # ------------------------------------------------------------------- api

    def get(self, tier: str, key: str) -> Optional[Tuple[Meta, Arrays]]:
        """The ``(meta, arrays)`` blob for ``(tier, key)``, or ``None``.

        Refreshes LRU recency on a hit.  A blob that exists but fails to
        deserialize is quarantined and reported as a miss — the store heals
        forward instead of failing the job that asked.  Journal writes on
        this path are best-effort for the same reason.
        """
        ident = (tier, key)
        with self._lock:
            if ident not in self._entries:
                self.misses += 1
                return None
            path = self._path(tier, key)
        # The blob read happens outside the lock: one tier warming a large
        # tree must not stall every other tier's (memory-fast) lookups.
        try:
            blob = read_blob(path)
        except InvalidInputError:
            with self._lock:
                if ident in self._entries:
                    # Still live: genuinely corrupt — quarantine it.  If a
                    # concurrent put evicted it meanwhile, the unlinked
                    # file was the cause and there is nothing to heal.
                    self._quarantine_file(path)
                    self._current_bytes -= self._entries.pop(ident)
                    self._append_best_effort(
                        {"op": "evict", "tier": tier, "key": key})
                    self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            if ident in self._entries:
                self._entries.move_to_end(ident)
                self._append_best_effort(
                    {"op": "touch", "tier": tier, "key": key})
            self.hits += 1
            return blob

    def put(self, tier: str, key: str, meta: Meta, arrays: Arrays) -> bool:
        """Persist one artifact; returns whether it was stored.

        The blob is written atomically (temp file + rename); least-recently
        -used artifacts are evicted until it fits.  An artifact larger than
        the whole budget is rejected rather than flushing the store.
        """
        with self._lock:
            path = self._path(tier, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=f"{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    write_blob(fh, meta, arrays)
                    fh.flush()
                    os.fsync(fh.fileno())
                return self._commit_tmp(tier, key, tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _commit_tmp(self, tier: str, key: str, tmp: str, path: str) -> bool:
        """Move a fully written temp blob into its live name (lock held).

        Shared tail of every write path: budget check, LRU eviction until
        the newcomer fits, atomic rename, journal append.  Returns whether
        the blob was kept (``False`` only for over-budget artifacts, whose
        temp file is unlinked here).
        """
        size = os.path.getsize(tmp)
        if size > self.max_bytes:
            os.unlink(tmp)
            self.oversized += 1
            return False
        ident = (tier, key)
        if ident in self._entries:
            self._current_bytes -= self._entries.pop(ident)
        while self._current_bytes + size > self.max_bytes:
            (old_tier, old_key), old_size = \
                self._entries.popitem(last=False)
            self._current_bytes -= old_size
            try:
                os.unlink(self._path(old_tier, old_key))
            except OSError:
                pass
            self._append({"op": "evict", "tier": old_tier,
                          "key": old_key})
            self.evictions += 1
        os.replace(tmp, path)
        self._entries[ident] = size
        self._current_bytes += size
        self._append({"op": "put", "tier": tier, "key": key,
                      "nbytes": size})
        self.puts += 1
        return True

    # ------------------------------------------------------------- raw bytes
    #
    # The wire format IS the store format: a blob file's bytes stream
    # straight onto the ``/v1/artifacts`` surface and straight back into a
    # peer's store, so replication and peer-fetch get byte-identity for
    # free.  These two methods are that surface's storage half.

    def get_blob_bytes(self, tier: str, key: str) -> Optional[bytes]:
        """The raw blob-file bytes for ``(tier, key)``, or ``None``.

        Refreshes LRU recency on a hit, like :meth:`get`.  A file whose
        size disagrees with the journal is quarantined and reported as a
        miss — the receiving side would reject it anyway, so heal here.
        """
        ident = (tier, key)
        with self._lock:
            expected = self._entries.get(ident)
            if expected is None:
                self.misses += 1
                return None
            path = self._path(tier, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        if len(data) != expected:
            with self._lock:
                # Only quarantine if nothing rewrote the entry meanwhile.
                if self._entries.get(ident) == expected:
                    self._quarantine_file(path)
                    self._current_bytes -= self._entries.pop(ident)
                    self._append_best_effort(
                        {"op": "evict", "tier": tier, "key": key})
                    self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            if ident in self._entries:
                self._entries.move_to_end(ident)
                self._append_best_effort(
                    {"op": "touch", "tier": tier, "key": key})
            self.hits += 1
        return data

    def put_blob_bytes(self, tier: str, key: str, data: bytes) -> bool:
        """Persist one artifact from raw blob bytes; returns whether stored.

        The bytes are written to a temp file, fsync'ed, then *validated by
        deserializing* before the atomic rename — torn or foreign bytes
        raise :class:`InvalidInputError` and leave the store untouched.
        """
        with self._lock:
            path = self._path(tier, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=f"{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                read_blob(tmp)
                return self._commit_tmp(tier, key, tmp, path)
            except InvalidInputError:
                self.corrupt += 1
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def __contains__(self, ident: Tuple[str, str]) -> bool:
        with self._lock:
            return tuple(ident) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self, tier: Optional[str] = None) -> List[Tuple[str, str]]:
        """``(tier, key)`` pairs in LRU order, optionally one tier only."""
        with self._lock:
            return [ident for ident in self._entries
                    if tier is None or ident[0] == tier]

    def entries(self, tier: Optional[str] = None) -> List[Dict[str, Any]]:
        """Listing documents (``tier``/``key``/``nbytes``) in LRU order.

        JSON-safe by construction — this is the body of the artifact
        listing endpoint, which rebalance walks to find stranded shards.
        """
        with self._lock:
            return [{"tier": t, "key": k, "nbytes": n}
                    for (t, k), n in self._entries.items()
                    if tier is None or t == tier]

    def clear(self) -> int:
        """Delete every stored artifact; returns how many were removed."""
        with self._lock:
            removed = len(self._entries)
            for tier, key in list(self._entries):
                try:
                    os.unlink(self._path(tier, key))
                except OSError:
                    pass
            self._entries.clear()
            self._current_bytes = 0
            self._compact()
            return removed

    def clear_tier(self, tier: str) -> Tuple[int, int]:
        """Delete one tier's artifacts; returns ``(entries, bytes)`` removed.

        The ops-endpoint building block: flushing e.g. the result tier
        after an algorithm fix must not also discard every expensively
        built tree.  Other tiers' entries and recency are untouched.
        """
        with self._lock:
            removed = 0
            reclaimed = 0
            for ident in [i for i in self._entries if i[0] == tier]:
                reclaimed += self._entries.pop(ident)
                removed += 1
                try:
                    os.unlink(self._path(*ident))
                except OSError:
                    pass
            self._current_bytes -= reclaimed
            if removed:
                self._compact()  # journal must not resurrect them on replay
            return removed, reclaimed

    def compact(self) -> Dict[str, int]:
        """Rewrite the journal to one line per live entry, on demand.

        Compaction normally triggers itself once the journal outgrows the
        live set by ``_COMPACT_SLACK`` lines; this forces it now (an ops
        hook for before-snapshot or after-mass-eviction moments).  Returns
        the line and byte counts reclaimed, JSON-safe.
        """
        with self._lock:
            try:
                bytes_before = os.path.getsize(self._index_path)
            except OSError:
                bytes_before = 0
            lines_before = self._journal_lines
            self._compact()
            try:
                bytes_after = os.path.getsize(self._index_path)
            except OSError:
                bytes_after = 0
            return {
                "journal_lines_before": lines_before,
                "journal_lines_after": self._journal_lines,
                "journal_bytes_before": bytes_before,
                "journal_bytes_after": bytes_after,
                "journal_bytes_reclaimed": max(0, bytes_before - bytes_after),
                "entries": len(self._entries),
            }

    @property
    def current_bytes(self) -> int:
        """Total bytes of stored blob files."""
        with self._lock:
            return self._current_bytes

    def stats(self) -> Dict[str, Any]:
        """Occupancy, counters and last-open heal report, JSON-safe."""
        with self._lock:
            per_tier: Dict[str, int] = {}
            for tier, _key in self._entries:
                per_tier[tier] = per_tier.get(tier, 0) + 1
            return {
                "root": self.root,
                "entries": len(self._entries),
                "entries_by_tier": per_tier,
                "current_bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "corrupt": self.corrupt,
                "journal_errors": self.journal_errors,
                "healed": dict(self.healed),
            }
