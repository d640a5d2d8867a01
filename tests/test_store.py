"""Tests for the persistent artifact store (repro.store) and its wiring."""

import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import emst, hdbscan
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import build_tree, mutual_reachability_emst
from repro.errors import InvalidInputError, ServiceError
from repro.geometry.morton import morton_encode
from repro.service import (
    Engine,
    JobSpec,
    canonical_payload_bytes,
    emst_result_to_dict,
    hdbscan_result_to_dict,
)
from repro.service.executor import execute_spec, make_exec_spec
from repro.service.scheduler import JobTicket, Scheduler
from repro.store import (
    DiskStore,
    EncodedPayload,
    TieredCache,
    combine_fingerprint,
    fingerprint,
    fingerprint_array,
    read_blob,
    write_blob,
)
from repro.store.blob import (
    decode_core,
    decode_result,
    decode_tree,
    encode_core,
    encode_tree,
)
from tests.conftest import TREE_CONFIGS


TREE_ARRAYS = ("points", "order", "left", "right", "parent", "lo", "hi")


def _tree_value(tree):
    """A tree-tier value: the tree's order."""
    return {"order": tree.order}


def _tree_of(value, points):
    """The tree a tree-tier value rebuilds over ``points``."""
    return build_tree(points, order=value["order"])


def _assert_same_tree(back, tree):
    """Every array of ``back`` equals ``tree``'s, dtype and bytes."""
    for name in TREE_ARRAYS:
        got, want = getattr(back, name), getattr(tree, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert [level.tobytes() for level in back.schedule] == \
        [level.tobytes() for level in tree.schedule]


def _full_state_blob(tree, fmt, leaf_start=None, leaf_count=None):
    """``tree``'s blob bytes as writers of formats 1-3 laid it out: every
    tree array, the schedule level by level and, from blocked-leaf
    writers, the leaf arrays and the blocking factor."""
    meta = {"tier": "tree", "n_schedule": len(tree.schedule),
            "counters": None, "format": fmt}
    arrays = {name: getattr(tree, name) for name in TREE_ARRAYS}
    arrays["codes"] = morton_encode(tree.points)
    for level, step in enumerate(tree.schedule):
        arrays[f"schedule_{level:03d}"] = step
    if leaf_start is not None:
        meta["leaf_size"] = int(leaf_count.max())
        arrays.update(leaf_start=leaf_start, leaf_count=leaf_count)
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                               dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **{"__meta__": meta_bytes}, **arrays)
    return buffer.getvalue()


def _blocked_blob(tree):
    """``tree``'s format-2 blob with leaf arrays of four points per
    leaf."""
    starts = np.arange(0, tree.n, 4, dtype=np.int64)
    return _full_state_blob(tree, 2, starts,
                            np.diff(np.append(starts, tree.n)))


#: Orders no tree blob may carry: decoding each raises.
BAD_ORDERS = {
    "duplicate": np.array([0, 1, 1, 3]),
    "negative": np.array([0, -1, 2, 3]),
    "out of range": np.array([0, 1, 2, 4]),
    "2-D": np.arange(4).reshape(2, 2),
    "float": np.arange(4, dtype=np.float64),
    "empty": np.empty(0, dtype=np.int64),
}


class TestFingerprint:
    """The keying scheme is part of the on-disk format: these digests are
    pinned so a refactor that silently changes key bytes (stranding every
    persisted store) fails here instead of in production."""

    PINNED_ARRAY = ("5a15c734dcae3a0841149a7c9520f42a"
                    "642f386daea009a18e7b55bf5bddf5aa")
    PINNED_COMBINED = ("3906588d31ab179715d9f83889882e80"
                       "1d2206c6631079b970591d1f84fd609e")
    PINNED_FP = ("f36e6c9075227c5018497f21bdcad480"
                 "2b7aea09800022b7f30e1f5d9b14340f")

    def test_pinned_key_bytes(self):
        a = np.arange(6, dtype=np.float64).reshape(3, 2)
        assert fingerprint_array(a) == self.PINNED_ARRAY
        assert combine_fingerprint(fingerprint_array(a),
                                   "algorithm=emst") == self.PINNED_COMBINED
        assert fingerprint(np.zeros((2, 2)), "core;k_pts=2") == self.PINNED_FP

    def test_shape_and_dtype_feed_the_digest(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint_array(a) != fingerprint_array(a.reshape(3, 2))
        assert fingerprint_array(a) != \
            fingerprint_array(a.astype(np.float32))


class TestBlob:
    def test_tree_codec_round_trip(self, uniform_3d):
        tree = build_tree(uniform_3d)
        meta, arrays = encode_tree(_tree_value(tree))
        assert meta == {"tier": "tree"}
        assert set(arrays) == {"order"}
        back = decode_tree(meta, arrays)
        # Older blobs carry build counters in their metadata; ignored.
        assert decode_tree({**meta, "counters": {"scalar_ops": 123}},
                           arrays).keys() == back.keys() == {"order"}
        assert back["order"].dtype == np.int32
        assert np.array_equal(back["order"], tree.order)
        # The decoded order rebuilds the tree, which drives the solver to
        # the same answer.
        _assert_same_tree(_tree_of(back, uniform_3d), tree)
        assert np.array_equal(
            emst(uniform_3d, bvh=_tree_of(back, uniform_3d)).edges,
            emst(uniform_3d).edges)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_a_tree_hit_from_either_order_dtype_is_the_cold_answer(
            self, tmp_path, dtype):
        # Trees are stored as int32 orders; blobs written with int64
        # orders before that still decode, and both answer like cold.
        points = np.random.default_rng(6).random((2000, 3))
        spec = JobSpec(points=points)
        cold = execute_spec(make_exec_spec(spec, points=points))
        path = tmp_path / "tree.npz"
        with open(path, "wb") as fh:
            write_blob(fh, *encode_tree(
                {"order": cold["tree_order"].astype(dtype)}))
        value = decode_tree(*read_blob(str(path)))
        assert value["order"].dtype == np.int32
        key = combine_fingerprint(fingerprint_array(points), spec.tree_key())
        with Engine(max_workers=1) as eng:
            eng.tree_cache.put(key, value)
            hit = eng.result(eng.submit(spec), timeout=120)
        assert hit.cache["tree_hit"]
        assert canonical_payload_bytes(hit.payload) == \
            canonical_payload_bytes(cold["payload"])

    @pytest.mark.parametrize("name", list(BAD_ORDERS))
    def test_decode_rejects_a_bad_order(self, name):
        meta, arrays = encode_tree({"order": np.arange(4)})
        assert decode_tree(meta, arrays)["order"].tolist() == [0, 1, 2, 3]
        with pytest.raises(InvalidInputError, match="not a permutation"):
            decode_tree(meta, {"order": BAD_ORDERS[name]})

    def test_core_codec_round_trip(self):
        core = np.linspace(0.0, 1.0, 17)
        meta, arrays = encode_core({"core_sq": core, "counters": None})
        back = decode_core(meta, arrays)
        assert np.array_equal(back["core_sq"], core)
        assert back["counters"] is None

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "x.npz"
        with open(path, "wb") as fh:
            write_blob(fh, {"payload": {"k": [1, 2]}},
                       {"a": np.arange(3, dtype=np.int64)})
        meta, arrays = read_blob(str(path))
        assert meta["payload"] == {"k": [1, 2]}
        assert np.array_equal(arrays["a"], np.arange(3))

    def test_read_blob_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip file at all")
        with pytest.raises(InvalidInputError):
            read_blob(str(path))


def _same_bits(a, b):
    """``a == b`` with every float compared bit for bit (``-0.0`` is not
    ``0.0``), in the same key order."""
    if isinstance(a, float):
        return type(b) is float and struct.pack("<d", a) == \
            struct.pack("<d", b)
    if isinstance(a, dict):
        return (type(b) is dict and list(a) == list(b)
                and all(_same_bits(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (type(b) is list and len(a) == len(b)
                and all(map(_same_bits, a, b)))
    return type(a) is type(b) and a == b


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=8)
#: Payload-shaped dicts: the fields a payload's encode reads, float and
#: int lists (subnormals and ``-0.0`` included) and nested counters.
_PAYLOADS = st.fixed_dictionaries({
    "edges": st.lists(st.lists(st.integers(0, 2 ** 40), min_size=2,
                               max_size=2), max_size=20),
    "weights": st.lists(_FINITE | st.sampled_from([5e-324, -0.0, 1e-310]),
                        max_size=40),
    "n_points": st.integers(0, 2 ** 31),
    "dimension": st.integers(2, 3),
    "counters": st.dictionaries(_NAMES, st.dictionaries(
        _NAMES, st.integers(0, 2 ** 63 - 1), max_size=4), max_size=3),
    "phases": st.dictionaries(_NAMES, _FINITE, max_size=3),
})


class TestEncodedPayload:
    """A payload's one stored form: compact orjson bytes that
    ``json.loads`` reads back float for float, or ``json.dumps`` bytes
    for the answers orjson would write as ``null``."""

    @given(_PAYLOADS)
    def test_finite_payloads_decode_bit_for_bit(self, payload):
        encoded = EncodedPayload.encode(payload)
        assert _same_bits(json.loads(encoded.body), payload)
        assert b"null" not in encoded.body
        assert encoded.nbytes == len(encoded.body)

    @given(_PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]),
           st.data())
    def test_a_non_finite_value_keeps_the_json_encoding(self, payload, bad,
                                                        data):
        where = data.draw(st.sampled_from(["weights", "phases", "nested"]))
        if where == "weights":
            index = data.draw(st.integers(0, len(payload["weights"])))
            payload["weights"].insert(index, bad)
        elif where == "phases":
            payload["phases"]["bad"] = bad
        else:
            payload["condensed"] = {"lambda_val": [1.0, bad]}
        encoded = EncodedPayload.encode(payload)
        assert encoded.body == json.dumps(payload).encode()
        assert encoded.nbytes == len(encoded.body)

    def test_json_encodes_only_what_orjson_cannot(self, monkeypatch):
        dumps = json.dumps
        orjson_dumps = orjson.dumps
        calls = []
        monkeypatch.setattr(json, "dumps", lambda obj, *args, **kwargs: (
            calls.append("json"), dumps(obj, *args, **kwargs))[1])
        monkeypatch.setattr(orjson, "dumps", lambda obj, *args, **kwargs: (
            calls.append("orjson"), orjson_dumps(obj, *args, **kwargs))[1])
        finite = {"n_points": 2, "dimension": 2, "weights": [0.5, -0.0]}
        assert EncodedPayload.encode(finite).body == \
            b'{"n_points":2,"dimension":2,"weights":[0.5,-0.0]}'
        assert calls == ["orjson"]
        infinite = {**finite, "weights": [0.5, math.inf]}
        assert EncodedPayload.encode(infinite).body == \
            dumps(infinite).encode()
        assert calls == ["orjson", "orjson", "json"]

    @pytest.mark.parametrize("kind", ["emst", "hdbscan",
                                      "hdbscan-infinite-lambda"])
    def test_decode_parses_as_json_loads_does(self, kind, monkeypatch):
        # orjson parses the body; json.loads only the Infinity of an
        # HDBSCAN* over >= k_pts duplicates, where lambda = 1/0.
        pts = np.random.default_rng(2).random((300, 2))
        if kind == "emst":
            payload = emst_result_to_dict(emst(pts))
        else:
            if kind == "hdbscan-infinite-lambda":
                pts = np.repeat(pts[:60], 5, axis=0)
            payload = hdbscan_result_to_dict(
                hdbscan(pts, min_cluster_size=5, k_pts=4))
        encoded = EncodedPayload.encode(payload)
        infinite = kind == "hdbscan-infinite-lambda"
        assert (b"Infinity" in encoded.body) is infinite
        loads = json.loads
        calls = []
        monkeypatch.setattr(json, "loads", lambda body: (
            calls.append(body), loads(body))[1])
        got = encoded.decode()
        assert len(calls) == infinite
        assert canonical_payload_bytes(got) == \
            canonical_payload_bytes(loads(encoded.body))

    def test_numpy_scalars_are_refused(self):
        # The payload builders emit plain Python types, which every
        # engine test pins by encoding its payload; a NumPy scalar is a
        # builder's bug, not something to encode another way.
        for scalar in (np.float64(0.5), np.int64(3)):
            with pytest.raises(TypeError):
                EncodedPayload.encode({"n_points": 1, "dimension": 2,
                                       "weights": [scalar]})


class TestDiskStore:
    def _core_blob(self, n=8):
        return encode_core({"core_sq": np.ones(n, dtype=np.float64),
                            "counters": None})

    def test_round_trip_and_persistence(self, tmp_path, uniform_2d):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        meta, arrays = encode_tree(_tree_value(build_tree(uniform_2d)))
        assert store.put("tree", "a" * 64, meta, arrays)
        assert ("tree", "a" * 64) in store

        reopened = DiskStore(root)  # "restart"
        blob = reopened.get("tree", "a" * 64)
        assert blob is not None
        back = decode_tree(*blob)
        assert np.array_equal(
            emst(uniform_2d, bvh=_tree_of(back, uniform_2d)).edges,
            emst(uniform_2d).edges)
        assert reopened.get("tree", "b" * 64) is None
        assert reopened.stats()["hits"] == 1
        assert reopened.stats()["misses"] == 1

    def test_lru_eviction_under_byte_budget(self, tmp_path):
        store = DiskStore(str(tmp_path), max_bytes=8 << 10)
        keys = [f"{i:02x}" * 32 for i in range(8)]
        for key in keys:
            meta, arrays = self._core_blob(128)  # ~1 KiB payload each
            store.put("core", key, meta, arrays)
        assert store.current_bytes <= 8 << 10
        assert store.evictions > 0
        # The newest keys survive; the oldest were evicted (files too).
        assert ("core", keys[-1]) in store
        assert ("core", keys[0]) not in store
        stored = store.keys("core")
        for tier, key in stored:
            assert os.path.exists(store._path(tier, key))

    def test_touch_recency_survives_restart(self, tmp_path):
        root = str(tmp_path)
        store = DiskStore(root, max_bytes=1 << 20)
        for name in ("aa", "bb", "cc"):
            store.put("core", name * 32, *self._core_blob())
        assert store.get("core", "aa" * 32) is not None  # refresh aa
        reopened = DiskStore(root, max_bytes=1 << 20)
        order = [key for _tier, key in reopened.keys("core")]
        assert order == ["bb" * 32, "cc" * 32, "aa" * 32]

    def test_oversized_blob_rejected(self, tmp_path):
        store = DiskStore(str(tmp_path), max_bytes=2 << 10)
        meta, arrays = self._core_blob(4096)  # 32 KiB array
        assert not store.put("core", "ff" * 32, meta, arrays)
        assert store.stats()["oversized"] == 1
        assert len(store) == 0

    def test_clear_removes_files(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("core", "aa" * 32, *self._core_blob())
        path = store._path("core", "aa" * 32)
        assert os.path.exists(path)
        assert store.clear() == 1
        assert not os.path.exists(path)
        assert DiskStore(str(tmp_path)).get("core", "aa" * 32) is None

    def test_clear_tier_leaves_other_tiers(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("core", "aa" * 32, *self._core_blob())
        store.put("result", "bb" * 32, *self._core_blob())
        entries, reclaimed = store.clear_tier("core")
        assert entries == 1 and reclaimed > 0
        assert ("core", "aa" * 32) not in store
        assert ("result", "bb" * 32) in store
        assert store.current_bytes > 0
        # The eviction is durable: a reopen must not resurrect the tier.
        reopened = DiskStore(str(tmp_path))
        assert reopened.get("core", "aa" * 32) is None
        assert reopened.get("result", "bb" * 32) is not None

    def test_clear_empty_tier_is_noop(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("core", "aa" * 32, *self._core_blob())
        assert store.clear_tier("tree") == (0, 0)
        assert len(store) == 1

    def test_compact_on_demand(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("core", "aa" * 32, *self._core_blob())
        for _ in range(5):
            store.get("core", "aa" * 32)  # touch lines accumulate
        report = store.compact()
        assert report["journal_lines_before"] == 6
        assert report["journal_lines_after"] == 1
        assert report["entries"] == 1
        assert report["journal_bytes_reclaimed"] > 0
        with open(os.path.join(str(tmp_path), "index.jsonl")) as fh:
            assert len(fh.readlines()) == 1


class TestCrashSafety:
    """A killed writer must never poison the store: opening self-heals."""

    def _store_with_entry(self, tmp_path):
        root = str(tmp_path)
        store = DiskStore(root)
        meta, arrays = encode_core({"core_sq": np.arange(64, dtype=float),
                                    "counters": None})
        store.put("core", "ab" * 32, meta, arrays)
        return root, store._path("core", "ab" * 32)

    def test_truncated_blob_quarantined_on_open(self, tmp_path):
        root, path = self._store_with_entry(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:  # kill -9 mid-overwrite analogue
            fh.truncate(size // 2)
        healed = DiskStore(root)
        assert healed.get("core", "ab" * 32) is None
        assert healed.healed["size_mismatches"] == 1
        assert not os.path.exists(path)  # moved out of the object tree
        quarantined = os.listdir(os.path.join(root, "quarantine"))
        assert any(name.startswith("ab" * 32) for name in quarantined)

    def test_orphan_tmp_files_removed_on_open(self, tmp_path):
        root, path = self._store_with_entry(tmp_path)
        orphan = os.path.join(os.path.dirname(path), "deadbeef.tmp")
        with open(orphan, "wb") as fh:
            fh.write(b"partial write, writer was killed")
        healed = DiskStore(root)
        assert not os.path.exists(orphan)
        assert healed.healed["orphan_tmp"] == 1
        assert healed.get("core", "ab" * 32) is not None  # entry intact

    def test_unindexed_blob_removed_on_open(self, tmp_path):
        root, path = self._store_with_entry(tmp_path)
        stray = os.path.join(os.path.dirname(path), "cd" * 32 + ".npz")
        with open(stray, "wb") as fh:
            fh.write(b"renamed into place but the journal append was lost")
        healed = DiskStore(root)
        assert not os.path.exists(stray)
        assert healed.healed["unindexed"] == 1

    def test_torn_journal_line_skipped(self, tmp_path):
        root, _path = self._store_with_entry(tmp_path)
        with open(os.path.join(root, "index.jsonl"), "a") as fh:
            fh.write('{"op": "put", "tier": "core", "ke')  # torn mid-append
        healed = DiskStore(root)
        assert healed.healed["bad_journal_lines"] == 1
        assert healed.get("core", "ab" * 32) is not None

    def test_missing_blob_dropped_on_open(self, tmp_path):
        root, path = self._store_with_entry(tmp_path)
        os.unlink(path)
        healed = DiskStore(root)
        assert healed.healed["missing_blobs"] == 1
        assert healed.get("core", "ab" * 32) is None

    def test_compaction_tmp_swept_on_open(self, tmp_path):
        root, _path = self._store_with_entry(tmp_path)
        stray = os.path.join(root, "index.jsonl.abc123")
        with open(stray, "w") as fh:  # crash mid-_compact analogue
            fh.write('{"op": "put"...')
        healed = DiskStore(root)
        assert not os.path.exists(stray)
        assert healed.healed["orphan_tmp"] == 1
        assert healed.get("core", "ab" * 32) is not None

    def test_unwritable_journal_degrades_get_to_success(self, tmp_path,
                                                        monkeypatch):
        # A volume that stops accepting writes (ENOSPC, remounted
        # read-only) must cost recency updates, not requests: get() on a
        # disk entry still returns the blob.  (chmod can't simulate this
        # under root, so the append itself is made to fail.)
        root, _path = self._store_with_entry(tmp_path)
        store = DiskStore(root)

        def refuse(record):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(store, "_append", refuse)
        assert store.get("core", "ab" * 32) is not None
        assert store.journal_errors == 1

    def test_corrupt_blob_quarantined_at_read(self, tmp_path):
        root, path = self._store_with_entry(tmp_path)
        size = os.path.getsize(path)
        with open(path, "wb") as fh:  # same size, garbage content
            fh.write(b"\x00" * size)
        store = DiskStore(root)  # size matches: survives the open check
        assert store.get("core", "ab" * 32) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)
        # The journal recorded the eviction: a reopen stays clean.
        assert DiskStore(root).healed["missing_blobs"] == 0


class TestTieredCache:
    def _value(self):
        return {"core_sq": np.arange(32, dtype=float), "counters": None}

    def test_memory_then_disk_then_miss(self, tmp_path):
        store = DiskStore(str(tmp_path))
        cache = TieredCache("core", 1 << 20, store)
        key = "aa" * 32
        assert cache.get_with_source(key) == (None, None)
        cache.put(key, self._value())
        assert cache.get_with_source(key)[1] == "memory"
        # A fresh facade over the same store simulates a restart: the
        # memory tier is empty, the disk tier answers, the value promotes.
        warm = TieredCache("core", 1 << 20, store)
        value, source = warm.get_with_source(key)
        assert source == "disk"
        assert np.array_equal(value["core_sq"], self._value()["core_sq"])
        assert warm.get_with_source(key)[1] == "memory"  # promoted
        assert warm.disk_hits == 1

    def test_no_store_degenerates_to_memory_only(self):
        cache = TieredCache("core", 1 << 20, None)
        cache.put("aa" * 32, self._value())
        assert cache.get_with_source("aa" * 32)[1] == "memory"
        assert cache.get_with_source("bb" * 32) == (None, None)
        assert cache.stats()["disk"]["enabled"] is False

    def test_memory_eviction_leaves_disk_copy(self, tmp_path):
        store = DiskStore(str(tmp_path))
        cache = TieredCache("core", 600, store)  # fits ~2 x 256-byte values
        for name in ("aa", "bb", "cc", "dd"):
            cache.put(name * 32, self._value())
        assert cache.memory.evictions > 0
        value, source = cache.get_with_source("aa" * 32)
        assert source == "disk"  # spilled on insert, survived eviction
        assert np.array_equal(value["core_sq"], self._value()["core_sq"])

    def test_stats_shape(self, tmp_path):
        cache = TieredCache("tree", 1 << 20, DiskStore(str(tmp_path)))
        stats = cache.stats()
        assert stats["name"] == "tree"
        assert set(stats["disk"]) == {"enabled", "hits", "misses",
                                      "hit_rate", "spill_errors",
                                      "decode_errors", "read_errors"}

    def test_promotion_reuses_insert_time_size(self, tmp_path, uniform_2d):
        # A result is charged its exact encoded byte length when inserted,
        # and the same again when a disk hit promotes it.
        value = EncodedPayload.encode(emst_result_to_dict(emst(uniform_2d)))
        store = DiskStore(str(tmp_path))
        cache = TieredCache("result", 1 << 20, store)
        cache.put("aa" * 32, value)
        assert cache.memory.size_of("aa" * 32) == value.nbytes
        assert value.nbytes == len(value.body)
        warm = TieredCache("result", 1 << 20, store)
        back, source = warm.get_with_source("aa" * 32)
        assert source == "disk"
        assert back == value
        assert list(back.phases) == list(value.phases)
        assert warm.memory.size_of("aa" * 32) == value.nbytes


class TestCoreDistanceInjection:
    """Library-level core_sq injection (the tier's compute contract)."""

    def test_injected_core_matches_direct(self, uniform_2d):
        direct = mutual_reachability_emst(uniform_2d, 4)
        assert direct.core_sq is not None
        injected = mutual_reachability_emst(uniform_2d, 4,
                                            core_sq=direct.core_sq)
        assert np.array_equal(injected.edges, direct.edges)
        assert np.array_equal(injected.weights, direct.weights)
        assert injected.phases["core"] == 0.0
        assert injected.counters["core"].scalar_ops == 0

    def test_injected_core_is_tree_layout_independent(self, uniform_2d):
        # Core distances computed under one tree configuration must drive
        # a run under another to the identical answer (caller-order
        # storage is what makes the (points, k_pts) cache key sound).
        core = mutual_reachability_emst(uniform_2d, 4).core_sq
        other = SingleTreeConfig(high_resolution=True)
        direct = mutual_reachability_emst(uniform_2d, 4, config=other)
        injected = mutual_reachability_emst(uniform_2d, 4, config=other,
                                            core_sq=core)
        assert np.array_equal(injected.edges, direct.edges)
        assert np.allclose(injected.weights, direct.weights)

    def test_hdbscan_with_injected_core(self, clustered_3d):
        mrd = mutual_reachability_emst(clustered_3d, 5)
        direct = hdbscan(clustered_3d)
        warm = hdbscan(clustered_3d, core_sq=mrd.core_sq)
        assert np.array_equal(warm.labels, direct.labels)
        assert warm.phases["core"] == 0.0

    def test_bad_core_sq_rejected(self, uniform_2d):
        with pytest.raises(InvalidInputError, match="shape"):
            mutual_reachability_emst(uniform_2d, 4, core_sq=np.ones(3))
        bad = np.full(len(uniform_2d), np.nan)
        with pytest.raises(InvalidInputError, match="finite"):
            mutual_reachability_emst(uniform_2d, 4, core_sq=bad)

    def test_euclidean_result_has_no_core(self, uniform_2d):
        assert emst(uniform_2d).core_sq is None


@pytest.fixture
def engine():
    """A memory-only two-worker engine for the core-tier guarantees."""
    with Engine(max_workers=2) as eng:
        yield eng


class TestEngineWarmRestart:
    """The acceptance path: serve → kill → serve with the same store."""

    def test_exact_repeat_served_from_disk(self, tmp_path):
        spec = dict(dataset="Uniform100M2:400", algorithm="mrd_emst",
                    k_pts=4)
        root = str(tmp_path / "store")
        with Engine(max_workers=1, store_dir=root) as eng:
            cold = eng.result(eng.submit(JobSpec(**spec)), timeout=120)
            assert cold.status.value == "done", cold.error
            cold_bytes = canonical_payload_bytes(cold.payload)
        with Engine(max_workers=1, store_dir=root) as eng:
            warm = eng.result(eng.submit(JobSpec(**spec)), timeout=120)
            assert warm.cache["result_hit"]
            assert warm.cache["result_disk_hit"]
            # No recompute: the scheduler saw no computed features.
            assert eng.stats()["scheduler"]["features_done"] == 0
            assert canonical_payload_bytes(warm.payload) == cold_bytes

    @pytest.mark.parametrize("config", list(TREE_CONFIGS))
    @pytest.mark.parametrize("n", [400, 1, 2, 3])
    def test_tree_and_core_warm_from_disk_byte_identical(self, tmp_path, n,
                                                         config):
        """Jobs over known points rebuild the tree from its cached order,
        from memory and, after a restart, from disk (with the core
        distances), and still match cold execution byte for byte."""
        root = str(tmp_path / "store")
        source = f"Uniform100M2:{n}"
        cfg = SingleTreeConfig(**TREE_CONFIGS[config])
        k_pts = min(4, n)
        # hdbscan needs two points; one point re-runs mrd_emst instead.
        warm_spec = (JobSpec(dataset=source, algorithm="hdbscan", k_pts=k_pts,
                             min_cluster_size=6, config=cfg) if n > 1
                     else JobSpec(dataset=source, algorithm="mrd_emst",
                                  k_pts=k_pts, config=cfg))
        with Engine(max_workers=1, store_dir=root) as eng:
            first = eng.result(
                eng.submit(JobSpec(dataset=source, algorithm="mrd_emst",
                                   k_pts=k_pts, config=cfg)),
                timeout=120)
            assert first.status.value == "done", first.error
            assert not first.cache["tree_hit"]
            memory = eng.result(
                eng.submit(JobSpec(dataset=source, config=cfg)), timeout=120)
            assert memory.status.value == "done", memory.error
            assert memory.cache["tree_hit"]
            assert not memory.cache["tree_disk_hit"]
            eng.flush(tier="result")
        with Engine(max_workers=1, store_dir=root) as eng:
            warm = eng.result(eng.submit(warm_spec), timeout=120)
            assert warm.status.value == "done", warm.error
            assert not warm.cache["result_hit"]
            assert warm.cache["tree_hit"] and warm.cache["tree_disk_hit"]
            assert warm.cache["core_hit"] and warm.cache["core_disk_hit"]
            # A hit rebuilds the tree from its order in ``tree_build``;
            # the algorithm's own tree and core phases report skipped.
            assert "tree_build" in warm.timings
            assert warm.timings["algo_tree"] == 0.0
            assert warm.timings["algo_core"] == 0.0
        # Replayed counters make warm payloads byte-identical to cold
        # execution — skipped phases report their original work numbers.
        for hit, spec in ((memory, JobSpec(dataset=source, config=cfg)),
                          (warm, warm_spec)):
            assert hit.timings["algo_tree"] == 0.0
            cold = execute_spec(make_exec_spec(spec))["payload"]
            assert canonical_payload_bytes(hit.payload) == \
                canonical_payload_bytes(cold)

    def test_flush_forgets_everything(self, tmp_path):
        root = str(tmp_path / "store")
        with Engine(max_workers=1, store_dir=root) as eng:
            eng.result(eng.submit(JobSpec(dataset="Uniform100M2:300")),
                       timeout=60)
            flushed = eng.flush()
            assert flushed["result"] == 1 and flushed["tree"] == 1
            assert flushed["store"] >= 2
            again = eng.result(eng.submit(JobSpec(dataset="Uniform100M2:300")),
                               timeout=60)
            assert not again.cache["result_hit"]
            assert not again.cache["result_disk_hit"]

    def test_flush_single_tier_keeps_the_rest(self, tmp_path):
        with Engine(max_workers=1, store_dir=str(tmp_path / "store")) as eng:
            eng.result(eng.submit(JobSpec(dataset="Uniform100M2:300",
                                          algorithm="mrd_emst", k_pts=4)),
                       timeout=60)
            flushed = eng.flush(tier="core")
            assert flushed["core"] == 1
            assert flushed["store"] == 1
            assert flushed["store_bytes"] > 0
            assert "tree" not in flushed
            again = eng.result(
                eng.submit(JobSpec(dataset="Uniform100M2:300",
                                   algorithm="hdbscan", k_pts=4)),
                timeout=60)
            assert again.cache["tree_hit"]  # tree tier survived
            assert not again.cache["core_hit"]  # core tier flushed

    def test_flush_unknown_tier_raises(self):
        with Engine(max_workers=1) as eng:
            with pytest.raises(InvalidInputError, match="tier"):
                eng.flush(tier="bvh")  # wire alias is the server's job

    def test_compact_memory_only_returns_none(self):
        with Engine(max_workers=1) as eng:
            assert eng.compact() is None

    def test_disk_hit_serves_the_cold_bytes(self, tmp_path):
        # The payload comes back from disk exactly as the cold job encoded
        # it — key order included, not just the canonical form.
        root = str(tmp_path / "store")
        with Engine(max_workers=1, store_dir=root) as eng:
            cold = eng.result(eng.submit(JobSpec(dataset="Uniform100M2:1000")),
                              timeout=120)
            assert cold.status.value == "done", cold.error
        with Engine(max_workers=1, store_dir=root) as eng:
            warm = eng.result(eng.submit(JobSpec(dataset="Uniform100M2:1000")),
                              timeout=120)
        assert warm.cache["result_disk_hit"]
        assert warm.encoded.body == cold.encoded.body
        assert json.dumps(warm.payload) == json.dumps(cold.payload)

    def test_memory_only_engine_unchanged(self, uniform_2d):
        with Engine(max_workers=1) as eng:
            assert eng.store is None
            result = eng.result(eng.submit(JobSpec(points=uniform_2d)),
                                timeout=60)
            assert result.status.value == "done"
            assert eng.stats()["store"] is None


class TestCoreTier:
    def test_mrd_then_hdbscan_skips_core(self, engine, uniform_2d):
        mrd = engine.result(
            engine.submit(JobSpec(points=uniform_2d, algorithm="mrd_emst",
                                  k_pts=4)), timeout=120)
        assert not mrd.cache["core_hit"]
        hdb = engine.result(
            engine.submit(JobSpec(points=uniform_2d, algorithm="hdbscan",
                                  k_pts=4)), timeout=120)
        assert hdb.status.value == "done", hdb.error
        assert hdb.cache["tree_hit"] and hdb.cache["core_hit"]
        assert hdb.timings["algo_core"] == 0.0
        direct = hdbscan(uniform_2d, k_pts=4)
        assert np.array_equal(hdb.hdbscan().labels, direct.labels)

    def test_different_k_pts_misses_core(self, engine, uniform_2d):
        engine.result(engine.submit(
            JobSpec(points=uniform_2d, algorithm="mrd_emst", k_pts=4)),
            timeout=120)
        other = engine.result(engine.submit(
            JobSpec(points=uniform_2d, algorithm="mrd_emst", k_pts=7)),
            timeout=120)
        assert other.cache["tree_hit"]
        assert not other.cache["core_hit"]
        assert other.timings["algo_core"] > 0.0

    def test_emst_never_touches_core_tier(self, engine, uniform_2d):
        result = engine.result(engine.submit(JobSpec(points=uniform_2d)),
                               timeout=120)
        assert not result.cache["core_hit"]
        stats = engine.stats()["core_cache"]
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestLifecycleErrors:
    def test_submit_after_close_raises_service_error(self, uniform_2d):
        eng = Engine(max_workers=1)
        eng.close()
        with pytest.raises(ServiceError, match="closed"):
            eng.submit(JobSpec(points=uniform_2d))

    def test_scheduler_submit_after_shutdown(self):
        sched = Scheduler(lambda t: None, max_workers=1)
        sched.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            sched.submit(JobTicket("late", None))

    def test_service_error_is_clean_and_catchable(self, uniform_2d):
        from repro.errors import ReproError
        eng = Engine(max_workers=1)
        eng.close()
        with pytest.raises(ReproError):
            eng.submit(JobSpec(points=uniform_2d))


class TestServerWithStore:
    @pytest.fixture
    def persistent_api(self, tmp_path):
        from repro.service.server import create_server

        engine = Engine(max_workers=1, store_dir=str(tmp_path / "store"))
        server = create_server(engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, json.loads(resp.read())

    def _post(self, url, obj=None):
        data = json.dumps(obj).encode() if obj is not None else b""
        req = urllib.request.Request(url, data=data, method="POST")
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())

    def test_push_of_a_blocked_tree_blob_is_a_400(self, persistent_api,
                                                  uniform_2d):
        # So is a blob whose order is not a permutation.
        blobs = [_blocked_blob(build_tree(uniform_2d))]
        for order in BAD_ORDERS.values():
            buffer = io.BytesIO()
            write_blob(buffer, *encode_tree({"order": order}))
            blobs.append(buffer.getvalue())
        for i, data in enumerate(blobs):
            url = f"{persistent_api}/v1/artifacts/tree/{i:02x}" + "c" * 62
            req = urllib.request.Request(
                url, data=data, method="POST",
                headers={"Content-Type": "application/octet-stream"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=60)
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=60)
            assert excinfo.value.code == 404  # never stored

    def test_healthz_reports_persistence(self, persistent_api):
        _status, body = self._get(f"{persistent_api}/v1/healthz")
        assert body["persistent"] is True

    def test_stats_expose_disk_tiers_and_store(self, persistent_api):
        _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                  {"dataset": "Uniform100M2:200"})
        _, result = self._get(
            f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["status"] == "done"
        _, stats = self._get(f"{persistent_api}/v1/stats")
        for tier in ("tree_cache", "result_cache", "core_cache"):
            assert stats[tier]["disk"]["enabled"] is True
        assert stats["store"]["entries"] >= 2
        assert stats["store"]["entries_by_tier"].get("tree") == 1

    def test_admin_flush_endpoint(self, persistent_api):
        _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                  {"dataset": "Uniform100M2:200"})
        _, result = self._get(
            f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["status"] == "done"
        status, body = self._post(f"{persistent_api}/v1/admin/flush")
        assert status == 200
        assert body["flushed"]["store"] >= 2
        assert body["flushed"]["store_bytes"] > 0
        _, stats = self._get(f"{persistent_api}/v1/stats")
        assert stats["store"]["entries"] == 0
        assert stats["result_cache"]["entries"] == 0

    def test_admin_flush_single_tier(self, persistent_api):
        _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                  {"dataset": "Uniform100M2:200"})
        _, result = self._get(
            f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["status"] == "done"
        # "bvh" is the wire name of the internal tree tier.
        status, body = self._post(f"{persistent_api}/v1/admin/flush",
                                  {"tier": "bvh"})
        assert status == 200
        assert body["tier"] == "tree"
        assert body["flushed"]["tree"] == 1
        assert body["flushed"]["store"] == 1
        assert body["flushed"]["store_bytes"] > 0
        assert "result" not in body["flushed"]
        _, stats = self._get(f"{persistent_api}/v1/stats")
        # The result tier survives a tree-only flush, on disk too.
        assert stats["result_cache"]["entries"] == 1
        assert stats["store"]["entries_by_tier"].get("tree") is None
        assert stats["store"]["entries_by_tier"]["result"] == 1
        # The repeat is still an exact-repeat result hit...
        _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                  {"dataset": "Uniform100M2:200"})
        _, result = self._get(
            f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["cache"]["result_hit"]
        # ...but a *different* job over the same points rebuilds the tree.
        _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                  {"dataset": "Uniform100M2:200",
                                   "algorithm": "mrd_emst", "k_pts": 4})
        _, result = self._get(
            f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
        assert result["status"] == "done"
        assert not result["cache"]["tree_hit"]

    def test_admin_flush_unknown_tier_is_400(self, persistent_api):
        import urllib.error
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{persistent_api}/v1/admin/flush",
                       {"tier": "everything"})
        assert excinfo.value.code == 400

    def test_admin_compact_endpoint(self, persistent_api):
        for n in (200, 250, 300):
            _, submitted = self._post(f"{persistent_api}/v1/jobs",
                                      {"dataset": f"Uniform100M2:{n}"})
            _, result = self._get(
                f"{persistent_api}/v1/jobs/{submitted['job_id']}?wait=60")
            assert result["status"] == "done"
        status, body = self._post(f"{persistent_api}/v1/admin/compact")
        assert status == 200
        compacted = body["compacted"]
        # After compaction the journal holds exactly one line per entry.
        assert compacted["journal_lines_after"] == compacted["entries"]
        assert compacted["journal_lines_before"] >= \
            compacted["journal_lines_after"]

    def test_admin_compact_memory_only_node(self, api):
        import urllib.request
        req = urllib.request.Request(f"{api}/v1/admin/compact", data=b"",
                                     method="POST")
        with urllib.request.urlopen(req, timeout=30) as resp:
            body = json.loads(resp.read())
        assert resp.status == 200
        assert body["compacted"] is None


class TestTreeOrder:
    """The tree tier holds a tree as its sort order: the build rebuilds
    the rest, and an order that does not fit the points is a miss."""

    @pytest.mark.parametrize("points", [
        np.random.default_rng(0).random((3000, 3)),
        np.random.default_rng(1).random((500, 2)),
        np.repeat(np.random.default_rng(3).random((40, 2)), 3, axis=0),
        np.zeros((1, 3)),
        np.random.default_rng(8).random((2, 3)),
        np.random.default_rng(9).random((3, 3)),
        np.random.default_rng(10).random((10_000, 3)),
        np.random.default_rng(11).random((10_000, 2)),
    ])
    def test_order_rebuilds_the_cold_tree(self, points):
        for config in TREE_CONFIGS.values():
            cfg = SingleTreeConfig(**config)
            tree = build_tree(points, config=cfg)
            _assert_same_tree(build_tree(points, config=cfg,
                                         order=tree.order), tree)

    def test_a_cached_tree_is_its_order(self, tmp_path):
        points = np.random.default_rng(5).random((10_000, 3))
        spec = JobSpec(points=points)
        key = combine_fingerprint(fingerprint_array(points), spec.tree_key())
        with Engine(max_workers=1, store_dir=str(tmp_path)) as eng:
            result = eng.result(eng.submit(spec), timeout=120)
            assert result.status.value == "done", result.error
            value, source = eng.tree_cache.get_with_source(key)
            assert source == "memory"
            assert set(value) == {"order"}
            assert value["order"].dtype == np.int32
            assert value["order"].shape == (10_000,)
            assert eng.tree_cache.memory.size_of(key) <= 45_000
            stored = eng.artifact_entries()
        assert [entry["tier"] for entry in stored].count("tree") == 1
        tree_entry = next(e for e in stored if e["tier"] == "tree")
        assert tree_entry["nbytes"] <= 4 * 10_000 + 4096

    @pytest.mark.parametrize("bad", ["wrong length", "repeated entry",
                                     "tie out of order", "kd-tree length"])
    def test_a_cached_order_that_does_not_fit_is_a_miss(self, bad):
        rng = np.random.default_rng(4)
        points = rng.random((300, 2))
        config = SingleTreeConfig()
        if bad == "tie out of order":
            points = np.repeat(points[:150], 2, axis=0)
        if bad == "kd-tree length":
            config = SingleTreeConfig(tree_type="kdtree")
        spec = JobSpec(points=points, config=config)
        cold = execute_spec(make_exec_spec(spec, points=points))
        order = cold["tree_order"].copy()
        if bad in ("wrong length", "kd-tree length"):
            order = np.arange(301)
        elif bad == "repeated entry":
            order[0] = order[1]
        else:  # two copies of one point, out of index order
            order[:2] = order[1::-1]
        key = combine_fingerprint(fingerprint_array(points), spec.tree_key())
        with Engine(max_workers=1) as eng:
            eng.tree_cache.put(key, {"order": order})
            result = eng.result(eng.submit(spec), timeout=120)
            assert result.status.value == "done", result.error
            assert not result.cache["tree_hit"]
            assert canonical_payload_bytes(result.payload) == \
                canonical_payload_bytes(cold["payload"])
            # The job's own order replaced the one that did not fit.
            value, _ = eng.tree_cache.get_with_source(key)
            assert np.array_equal(value["order"], cold["tree_order"])

    def test_unsorted_codes_raise_instead_of_crashing(self):
        # A cached order that is a permutation but leaves the Morton codes
        # out of order: the build raises as Karras does, and the engine
        # builds cold instead.  A subprocess, so a crash shows as an exit
        # status rather than taking the test run down.
        script = (
            "import numpy as np\n"
            "from repro.core.emst import build_tree\n"
            "from repro.errors import InvalidInputError\n"
            "from repro.service import Engine, JobSpec\n"
            "from repro.service import canonical_payload_bytes as canon\n"
            "from repro.service.executor import execute_spec, "
            "make_exec_spec\n"
            "from repro.store import combine_fingerprint, "
            "fingerprint_array\n"
            "pts = np.random.default_rng(0).random((500, 3))\n"
            "spec = JobSpec(points=pts)\n"
            "cold = execute_spec(make_exec_spec(spec, points=pts))\n"
            "order = cold['tree_order'].copy()\n"
            "order[[100, 300]] = order[[300, 100]]\n"
            "try:\n"
            "    build_tree(pts, order=order)\n"
            "except InvalidInputError as exc:\n"
            "    print('raised', exc)\n"
            "key = combine_fingerprint(fingerprint_array(pts), "
            "spec.tree_key())\n"
            "with Engine(max_workers=1) as eng:\n"
            "    eng.tree_cache.put(key, {'order': order})\n"
            "    result = eng.result(eng.submit(spec), timeout=120)\n"
            "    print(result.status.value, result.cache['tree_hit'],\n"
            "          canon(result.payload) == canon(cold['payload']),\n"
            "          np.array_equal(eng.tree_cache.get_with_source(key)"
            "[0]['order'], cold['tree_order']))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised Morton codes must be sorted", "done False True True"], \
            proc.stdout


class TestBlobFormatCompatibility:
    """Blobs older writers left behind must still load: full-state trees
    of formats 1-3 through their own order, and trees whose leaf arrays
    say one point per leaf."""

    def test_format1_tree_blob_decodes(self, tmp_path, uniform_2d):
        tree = build_tree(uniform_2d)
        path = tmp_path / "old.npz"
        path.write_bytes(_full_state_blob(tree, 1))
        meta, arrays = read_blob(str(path))
        assert meta["format"] == 1
        back = decode_tree(meta, arrays)
        assert np.array_equal(back["order"], tree.order)
        _assert_same_tree(_tree_of(back, uniform_2d), tree)
        # And it drives the solver to the same answer.
        assert np.array_equal(
            emst(uniform_2d, bvh=_tree_of(back, uniform_2d)).edges,
            emst(uniform_2d).edges)

    def test_format2_result_blob_decodes(self, tmp_path, uniform_2d):
        # Format 2 kept the payload dict inside the sorted-key metadata and
        # no arrays; it must still decode (and promote at its exact size).
        payload = emst_result_to_dict(emst(uniform_2d))
        meta = {"tier": "result", "payload": payload,
                "memory_nbytes": 4096, "format": 2}
        meta_bytes = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
        buffer = io.BytesIO()
        np.savez(buffer, **{"__meta__": meta_bytes})
        data = buffer.getvalue()
        got_meta, arrays = read_blob(io.BytesIO(data))
        assert got_meta["format"] == 2 and arrays == {}
        value = decode_result(got_meta, arrays)
        assert canonical_payload_bytes(value.decode()) == \
            canonical_payload_bytes(payload)
        assert (value.n_points, value.dimension) == (200, 2)
        assert value.phases == payload["phases"]
        store = DiskStore(str(tmp_path))
        assert store.put_blob_bytes("result", "aa" * 32, data)
        cache = TieredCache("result", 1 << 20, store)
        back, source = cache.get_with_source("aa" * 32)
        assert source == "disk" and back == value
        assert cache.memory.size_of("aa" * 32) == value.nbytes

    def test_tree_blob_is_written_without_leaf_arrays(self, uniform_2d):
        meta, arrays = encode_tree(_tree_value(build_tree(uniform_2d)))
        assert "leaf_size" not in meta
        assert set(arrays) == {"order"}

    def test_one_point_leaf_arrays_decode_to_the_same_tree(self,
                                                           uniform_2d):
        tree = build_tree(uniform_2d)
        data = _full_state_blob(tree, 2, np.arange(tree.n, dtype=np.int64),
                                np.ones(tree.n, dtype=np.int64))
        meta, arrays = read_blob(io.BytesIO(data))
        assert meta["format"] == 2 and "leaf_start" in arrays
        _assert_same_tree(_tree_of(decode_tree(meta, arrays), uniform_2d),
                          tree)

    def test_blocked_leaf_arrays_read_as_a_miss(self, uniform_2d, tmp_path):
        data = _blocked_blob(build_tree(uniform_2d))
        with pytest.raises(InvalidInputError, match="one point per leaf"):
            decode_tree(*read_blob(io.BytesIO(data)))
        store = DiskStore(str(tmp_path))
        assert store.put_blob_bytes("tree", "bb" * 32, data)
        cache = TieredCache("tree", 1 << 20, store)
        assert cache.get_with_source("bb" * 32) == (None, None)
        assert cache.decode_errors == 1

    def test_unknown_future_format_rejected(self, tmp_path):
        import json as _json
        meta_bytes = np.frombuffer(
            _json.dumps({"format": 99}).encode(), dtype=np.uint8)
        path = tmp_path / "future.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **{"__meta__": meta_bytes})
        with pytest.raises(InvalidInputError, match="format"):
            read_blob(str(path))
