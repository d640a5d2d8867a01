"""The compiled engine's native path: malformed input, fallback, loader.

Answer and counter identity with the reference engine lives in the
engine-equivalence tests (``TestCompiledCounters``); this file covers
what only native code can get wrong — a malformed tree or argument must
raise (never crash the process), a host whose build fails must fall back
to the reference engine, and the loader must never load a library
another user could have written.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bvh import (
    batched_knn,
    batched_nearest,
    build_bvh,
    get_default_engine,
    radius_count,
    radius_search,
    set_default_engine,
)
from repro.bvh import compiled, traversal
from repro.core.emst import emst
from repro.core.labels import reduce_labels
from repro.errors import InvalidInputError

SRC = str(Path(__file__).resolve().parents[1] / "src")

MALFORMED_TREES = r"""
import numpy as np
from repro.bvh import batched_knn, batched_nearest, build_bvh, radius_search
from repro.errors import InvalidInputError

pts = np.random.default_rng(0).random((64, 2))

def tree(**kwargs):
    return build_bvh(pts, **kwargs)

bad = {}
bad["child out of range"] = tree()
bad["child out of range"].left[5] = 10 ** 6
bad["negative child"] = tree()
bad["negative child"].right[9] = -3
bad["child is the root"] = tree()
bad["child is the root"].right[7] = 0
bad["node is its own child"] = tree()
bad["node is its own child"].left[4] = 4
bad["leaf block out of range"] = tree(leaf_size=3)
bad["leaf block out of range"].leaf_count[2] = 10 ** 6
bad["stack too shallow"] = tree()
bad["stack too shallow"].schedule = []

kernels = {
    "nearest": lambda b: batched_nearest(b, b.points, engine="compiled"),
    "knn": lambda b: batched_knn(b, b.points, 3, engine="compiled"),
    "radius": lambda b: radius_search(b, b.points, 10.0, engine="compiled"),
}
for name, bvh in bad.items():
    for kernel, run in kernels.items():
        try:
            run(bvh)
        except InvalidInputError as exc:
            print("raised", name, kernel, exc)
        else:
            print("answered", name, kernel)
"""


def _python(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def test_malformed_tree_raises_instead_of_crashing():
    # A subprocess, so a segfault shows as its exit status rather than
    # taking the test run down.
    proc = _python("-c", MALFORMED_TREES)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    assert len(lines) == 6 * 3, out
    assert all(line.startswith("raised") for line in lines), out


def test_arguments_are_validated_before_any_pointer():
    rng = np.random.default_rng(1)
    bvh = build_bvh(rng.random((40, 3)))
    n = bvh.n
    bad_calls = [
        dict(query_core_sq=np.zeros(n)),  # no point_core_sq
        dict(query_core_sq=np.zeros(n), point_core_sq=np.zeros(n - 1)),
        dict(query_ids=bvh.order),  # no point_ids
        dict(query_ids=bvh.order, point_ids=bvh.order[:-1]),
        dict(query_labels=np.zeros(n, dtype=np.int64),
             node_labels=np.zeros(3, dtype=np.int64),
             point_labels=np.zeros(n, dtype=np.int64)),
        dict(exclude_position=np.arange(n - 2)),
        dict(init_radius_sq=np.ones(n + 1)),
    ]
    for kwargs in bad_calls:
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points, engine="compiled", **kwargs)
    with pytest.raises(InvalidInputError):
        batched_knn(bvh, bvh.points, 2, engine="compiled",
                    exclude_position=np.arange(3))
    with pytest.raises(InvalidInputError):
        batched_nearest(bvh, bvh.points[:, :2], engine="compiled")


def test_any_layout_and_dtype_is_copied_to_the_exact_one():
    rng = np.random.default_rng(2)
    bvh = build_bvh(rng.random((80, 2)))
    labels = rng.integers(0, 4, size=bvh.n)
    node_labels = reduce_labels(bvh, labels)
    kwargs = dict(query_labels=labels, node_labels=node_labels,
                  point_labels=labels, query_ids=bvh.order,
                  point_ids=bvh.order)
    want = batched_nearest(bvh, bvh.points, engine="reference", **kwargs)
    got = batched_nearest(
        bvh, np.asfortranarray(bvh.points), engine="compiled",
        query_labels=labels.astype(np.int32),
        node_labels=node_labels.astype(np.int16),
        point_labels=np.repeat(labels, 2)[::2],  # strided
        query_ids=bvh.order.astype(np.int32), point_ids=bvh.order)
    assert np.array_equal(got.position, want.position)
    assert np.array_equal(got.key, want.key)


def test_kernel_calls_release_the_gil():
    # The engine runs every job on its worker threads. They share cores
    # only because a ctypes.CDLL call releases the GIL while the kernel
    # runs; a ctypes.PyDLL call holds it, which would put every worker's
    # kernel on one core.
    assert not isinstance(compiled.library(), ctypes.PyDLL)


def test_failed_build_falls_back_to_reference(monkeypatch):
    def no_compiler(dirs=None):
        raise compiled.BuildError("no C compiler (cc) on PATH")

    monkeypatch.setattr(compiled, "build", no_compiler)
    monkeypatch.setattr(compiled, "_lib", None)
    monkeypatch.setattr(compiled, "_failure", None)
    monkeypatch.setattr(traversal, "_default_engine", None)

    assert get_default_engine() == "reference"
    with pytest.raises(InvalidInputError, match="no C compiler"):
        set_default_engine("compiled")
    assert get_default_engine() == "reference"

    rng = np.random.default_rng(3)
    pts = rng.random((200, 2))
    bvh = build_bvh(pts)
    with pytest.raises(InvalidInputError):
        batched_nearest(bvh, bvh.points, engine="compiled")
    nearest = batched_nearest(bvh, bvh.points,
                              exclude_position=np.arange(bvh.n))
    assert np.all(nearest.found)
    assert batched_knn(bvh, bvh.points, 3).positions.shape == (bvh.n, 3)
    assert radius_search(bvh, bvh.points, 0.1)[0].shape == (bvh.n + 1,)
    assert np.all(radius_count(bvh, bvh.points, 0.1) >= 1)
    assert emst(pts).edges.shape == (199, 2)


# --------------------------------------------------------------- loader

def test_refuses_a_group_or_other_writable_dir(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    with pytest.raises(compiled.BuildError):
        compiled.build([shared])
    private = tmp_path / "private"
    path = compiled.build([shared, private])
    assert path.parent == private
    assert not list(shared.iterdir())


def test_refuses_a_dir_another_user_owns(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    with pytest.raises(compiled.BuildError):
        compiled.build([cache])
    assert not list(cache.iterdir())


def test_never_loads_a_library_another_user_could_write(tmp_path,
                                                        monkeypatch):
    path = compiled.build([tmp_path])

    # Group-writable: rebuilt over, not loaded.
    path.write_bytes(b"not a library")
    path.chmod(0o666)
    assert compiled.build([tmp_path]) == path
    assert path.read_bytes() != b"not a library"
    assert not path.stat().st_mode & 0o022

    # Owned by another user: rebuilt over too.
    path.write_bytes(b"not a library")
    real_lstat = os.lstat

    def lstat(target, *args, **kwargs):
        st = real_lstat(target, *args, **kwargs)
        if Path(target) == path and st.st_size == len(b"not a library"):
            fields = list(st)
            fields[4] = st.st_uid + 1  # st_uid
            return os.stat_result(fields)
        return st

    monkeypatch.setattr(os, "lstat", lstat)
    assert compiled.build([tmp_path]) == path
    assert path.read_bytes() != b"not a library"
    ctypes.CDLL(str(path))


def test_two_processes_building_at_once_both_load(tmp_path):
    script = ("import ctypes, sys\n"
              "from pathlib import Path\n"
              "from repro.bvh import compiled\n"
              "path = compiled.build([Path(sys.argv[1])])\n"
              "ctypes.CDLL(str(path)).repro_free(None)\n"
              "print(path)\n")
    procs = [_python("-c", script, str(tmp_path)) for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    # Each build went through its own temp file; none is left behind.
    assert [p.name for p in tmp_path.iterdir()] == [Path(*paths).name]
