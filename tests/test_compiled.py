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
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bvh import (
    batched_knn,
    batched_nearest,
    build_bvh,
    get_default_engine,
    set_default_engine,
    traversal_engine,
)
from repro.bvh import build, compiled, reference, traversal
from repro.core import bounds, merge, outgoing
from repro.core.emst import emst, mutual_reachability_emst
from repro.core.labels import reduce_labels
from repro.errors import InvalidInputError
from repro.hdbscan.hdbscan import hdbscan

SRC = str(Path(__file__).resolve().parents[1] / "src")

MALFORMED_TREES = r"""
import numpy as np
from repro.bvh import batched_knn, batched_nearest, build_bvh, compiled
from repro.errors import InvalidInputError

assert compiled.selected()
pts = np.random.default_rng(0).random((64, 2))
lanes = np.resize(pts, (600, 2))  # three blocks of lanes

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
bad["stack too shallow"] = tree()
bad["stack too shallow"].schedule = []

kernels = {
    "nearest": lambda b: batched_nearest(b, lanes),
    "knn": lambda b: batched_knn(b, lanes, 3),
}

# Two defects that different lanes reach: a child out of range under the
# first leaf's parent, which only lanes near the first point pop, and a
# cycle through the last leaf's parent, which only lanes near the last
# point enter.  The first failing lane's status must win at any thread
# count.
two = tree()
first_parent = two.parent[two.leaf_base]
last_parent = two.parent[2 * two.n - 2]
assert 0 not in (first_parent, last_parent) and first_parent != last_parent
two.left[first_parent] = 10 ** 6
two.right[last_parent] = last_parent
first, last = two.points[:1], two.points[-1:]
orders = {"first lane near the first point": np.concatenate(
              [first, np.repeat(last, 599, axis=0)]),
          "first lane near the last point": np.concatenate(
              [last, np.repeat(first, 599, axis=0)])}

for threads in (1, 3):
    compiled._cpus = lambda: threads
    for name, bvh in bad.items():
        for kernel, run in kernels.items():
            try:
                run(bvh)
            except InvalidInputError as exc:
                print("raised", threads, name, kernel, exc)
            else:
                print("answered", threads, name, kernel)
    for name, queries in orders.items():
        try:
            batched_nearest(two, queries)
        except InvalidInputError as exc:
            print("raised", threads, name, "nearest", exc)
        else:
            print("answered", threads, name, "nearest")
"""

MALFORMED_STEPS = r"""
import dataclasses

import numpy as np
from repro.bvh import build_bvh, compiled
from repro.bvh.refit import bottom_up_schedule, refit_bounds
from repro.core.bounds import compute_upper_bounds
from repro.core.labels import reduce_labels
from repro.core.merge import merge_components
from repro.core.outgoing import OutgoingEdges
from repro.errors import ConvergenceError, InvalidInputError
from repro.store.blob import decode_tree, encode_tree

assert compiled.selected()
good = build_bvh(np.random.default_rng(0).random((64, 2)))
n, left, right, schedule = good.n, good.left, good.right, good.schedule
labels = np.arange(n)


def changed(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def tree(**arrays):
    return dataclasses.replace(good, **arrays)


def edges(component, target_component):
    component = np.asarray(component, dtype=np.int64)
    target_component = np.asarray(target_component, dtype=np.int64)
    return OutgoingEdges(component, component, target_component,
                         np.ones(component.size), target_component)


# A non-root inner node whose left child is inner too: that child's
# left child becomes the node, which closes a cycle.
inner = next(t for t in range(1, n - 1) if left[t] < n - 1)
cycle = changed(left, int(left[inner]), inner)
bad_left = changed(left, 5, 10 ** 6)
meta, blob = encode_tree({"order": good.order})
blob["order"] = changed(blob["order"], 3, 10 ** 6)
position = np.zeros(n, dtype=np.int64)

steps = {
    "karras: unsorted codes": lambda: compiled.karras_compiled(
        np.array([3, 1, 2], dtype=np.uint64), None),
    "schedule: child out of range": lambda: bottom_up_schedule(
        bad_left, right, n),
    "schedule: negative child": lambda: bottom_up_schedule(
        left, changed(right, 9, -3), n),
    "schedule: cycle in left/right": lambda: bottom_up_schedule(
        cycle, right, n),
    "refit: child out of range": lambda: refit_bounds(
        good.points, bad_left, right, schedule),
    "refit: schedule entry out of range": lambda: refit_bounds(
        good.points, left, right, [np.array([10 ** 6])]),
    "labels: child out of range": lambda: reduce_labels(
        tree(left=bad_left), labels),
    "bounds: label outside [0, n)": lambda: compute_upper_bounds(
        good, changed(labels, 7, n + 3), window=4),
    "outgoing: label outside [0, n)": lambda: compiled.component_min_compiled(
        changed(labels, 0, -1), position, np.zeros(n),
        np.zeros(n, dtype=np.uint64)),
    "outgoing: neighbor outside [0, n)": lambda:
        compiled.component_min_compiled(
            labels, changed(position, 4, n), np.zeros(n),
            np.zeros(n, dtype=np.uint64)),
    "merge: successor outside [0, n)": lambda: merge_components(
        labels, n, edges([0, 1], [1, n + 7])),
    "merge: point label outside [0, n)": lambda: merge_components(
        changed(labels, 3, -5), n, edges([0, 1], [1, 0])),
    "tree blob: order out of range": lambda: decode_tree(meta, blob),
    "merge: successor cycle of 3": lambda: merge_components(
        labels, n, edges([0, 1, 2], [1, 2, 0])),
}
for name, run in steps.items():
    try:
        run()
    except InvalidInputError as exc:
        print("raised", name, exc)
    except ConvergenceError as exc:
        print("diverged", name, exc)
    else:
        print("answered", name)
"""


def _python(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def test_malformed_tree_raises_instead_of_crashing():
    # Subprocesses, so a segfault shows as an exit status rather than
    # taking the test run down.  The first runs every traversal kernel on
    # 1 and on 3 threads, which must give the same messages; the second
    # runs the build and round steps, and a peer's tree blob with an
    # order entry out of range.
    proc = _python("-c", MALFORMED_TREES)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    assert len(lines) == 2 * (5 * 2 + 2), out
    assert all(line.startswith("raised") for line in lines), out
    by_threads = {}
    for line in lines:
        _, threads, rest = line.split(" ", 2)
        by_threads.setdefault(threads, []).append(rest)
    assert by_threads["1"] == by_threads["3"], out
    first_point, last_point = by_threads["1"][-2:]
    assert first_point.endswith("child index out of range"), out
    assert last_point.endswith("(cycle)"), out

    proc = _python("-c", MALFORMED_STEPS)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    assert len(lines) == 14, out
    assert all(line.startswith("raised") for line in lines[:-1]), out
    assert lines[-1].startswith("diverged merge: successor cycle of 3"), out


def test_arguments_are_validated_before_any_pointer():
    rng = np.random.default_rng(1)
    bvh = build_bvh(rng.random((40, 3)))
    n = bvh.n
    bad_calls = [
        dict(query_core_sq=np.zeros(n)),  # no point_core_sq
        dict(query_core_sq=np.zeros(n), point_core_sq=np.zeros(n - 1)),
        dict(query_ids=bvh.order),  # no point_ids
        dict(query_ids=bvh.order, point_ids=bvh.order[:-1]),
        dict(query_labels=np.zeros(n, dtype=np.int64)),  # no node_labels
        dict(query_labels=np.zeros(n, dtype=np.int64),
             node_labels=np.zeros(3, dtype=np.int64)),
        dict(init_radius_sq=np.ones(n + 1)),
    ]
    with traversal_engine("compiled"):
        for kwargs in bad_calls:
            with pytest.raises(InvalidInputError):
                batched_nearest(bvh, bvh.points, **kwargs)
        with pytest.raises(InvalidInputError):
            batched_knn(bvh, bvh.points[:, :2], 2)
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points[:, :2])


def test_any_layout_and_dtype_is_copied_to_the_exact_one():
    rng = np.random.default_rng(2)
    bvh = build_bvh(rng.random((80, 2)))
    labels = rng.integers(0, 4, size=bvh.n)
    node_labels = reduce_labels(bvh, labels)
    kwargs = dict(query_labels=labels, node_labels=node_labels,
                  query_ids=bvh.order, point_ids=bvh.order)
    with traversal_engine("reference"):
        want = batched_nearest(bvh, bvh.points, **kwargs)
    with traversal_engine("compiled"):
        got = batched_nearest(
            bvh, np.asfortranarray(bvh.points),
            query_labels=labels.astype(np.int32),
            node_labels=np.repeat(node_labels.astype(np.int16), 2)[::2],
            query_ids=bvh.order.astype(np.int32),
            point_ids=np.repeat(bvh.order, 2)[::2])  # strided
    assert np.array_equal(got.position, want.position)
    assert np.array_equal(got.key, want.key)


def test_the_lease_returns_every_core_after_a_call_that_raises():
    bvh = build_bvh(np.random.default_rng(4).random((64, 2)))
    bvh.left[5] = 10 ** 6
    with traversal_engine("compiled"), \
            pytest.raises(InvalidInputError, match="child index"):
        batched_nearest(bvh, np.resize(bvh.points, (2000, 2)))
    assert compiled._held == 0


def test_concurrent_calls_share_the_free_cores(monkeypatch):
    monkeypatch.setattr(compiled, "_cpus", lambda: 2)
    with compiled._lease(compiled.BLOCK_LANES) as one_block:
        assert one_block == 1 and compiled._held == 0
    with compiled._lease(10_000) as first:
        with compiled._lease(10_000) as second:
            assert (first, second, compiled._held) == (2, 1, 3)
        with compiled._lease(10_000) as third:
            assert third == 1
    assert compiled._held == 0

    # Two workers' kernel calls at once never hold more than 3 threads.
    held = []
    run = compiled._run

    def counted(*args):
        held.append(compiled._held)
        return run(*args)

    monkeypatch.setattr(compiled, "_run", counted)
    bvh = build_bvh(np.random.default_rng(5).random((4000, 3)))
    labels = np.arange(bvh.n)
    singletons = dict(query_labels=labels,
                      node_labels=reduce_labels(bvh, labels))
    answers = []

    def calls():
        for _ in range(10):
            answers.append(batched_nearest(bvh, bvh.points, **singletons))

    with traversal_engine("compiled"):
        want = batched_nearest(bvh, bvh.points, **singletons)
        workers = [threading.Thread(target=calls) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    assert len(answers) == 20 and max(held) <= 3
    assert all(np.array_equal(a.position, want.position) for a in answers)
    assert compiled._held == 0


def test_running_jobs_hold_their_cores(monkeypatch):
    monkeypatch.setattr(compiled, "_cpus", lambda: 2)
    with compiled.holding_core():
        assert compiled._held == 1
        with compiled._lease(10_000) as lone:
            assert (lone, compiled._held) == (2, 2)
        assert compiled._held == 1

        # A second running job takes the idle core from the first's calls.
        started, finish = threading.Event(), threading.Event()

        def other_job():
            with compiled.holding_core():
                started.set()
                finish.wait()

        other = threading.Thread(target=other_job)
        other.start()
        started.wait()
        with compiled._lease(10_000) as shared:
            assert (shared, compiled._held) == (1, 2)
        finish.set()
        other.join()
    assert compiled._held == 0


def test_an_engine_job_holds_its_workers_core(monkeypatch):
    from repro.service import Engine, JobSpec
    from repro.service import engine as engine_module

    held = []
    execute = engine_module.execute_spec

    def recorded(exec_spec):
        held.append(compiled._held)
        return execute(exec_spec)

    monkeypatch.setattr(engine_module, "execute_spec", recorded)
    with Engine(max_workers=1, obs=False) as engine:
        job = engine.submit(JobSpec.from_dict(
            {"dataset": "Uniform100M2:300", "algorithm": "emst"}))
        assert engine.result(job, timeout=60.0).status.value == "done"
    assert held == [1] and compiled._held == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
def test_no_thread_outlives_a_kernel_call(monkeypatch):
    monkeypatch.setattr(compiled, "_cpus", lambda: 3)
    bvh = build_bvh(np.random.default_rng(6).random((3000, 2)))
    before = set(os.listdir("/proc/self/task"))
    with traversal_engine("compiled"):
        batched_nearest(bvh, bvh.points)
        batched_knn(bvh, bvh.points, 4)
    assert set(os.listdir("/proc/self/task")) <= before


def test_kernel_calls_release_the_gil():
    # The engine runs every job on its worker threads. They share cores
    # only because a ctypes.CDLL call releases the GIL while the kernel
    # runs; a ctypes.PyDLL call holds it, which would put every worker's
    # kernel on one core.
    assert not isinstance(compiled.library(), ctypes.PyDLL)


def _c_members(struct):
    """``(name, type)`` of each member of ``struct`` in ``traverse.c``,
    a pointer's type as ``"*"``."""
    source = Path(compiled.__file__).with_name("traverse.c").read_text()
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    body = re.search(r"typedef struct \{([^}]*)\}\s*" + struct + ";",
                     source).group(1)
    members = []
    for declaration in filter(str.strip, body.split(";")):
        ctype = declaration.split()[0]
        for declarator in declaration.split(","):
            name = re.search(r"(\w+)\s*$", declarator).group(1)
            members.append((name, "*" if "*" in declarator else ctype))
    return members


@pytest.mark.parametrize("struct,fields", [
    ("tree_t", compiled._Tree._fields_),
    ("nearest_t", compiled._Nearest._fields_),
    ("knn_t", compiled._Knn._fields_)])
def test_the_ctypes_structs_match_traverse_c(struct, fields):
    # A member missing on one side shifts every later one, so the first
    # kernel call would read the wrong memory instead of raising.
    kinds = {ctypes.c_void_p: "*", ctypes.c_int64: "int64_t"}
    assert _c_members(struct) == [(name, kinds[kind])
                                  for name, kind in fields]


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
    labels = np.arange(bvh.n)
    nearest = batched_nearest(bvh, bvh.points, query_labels=labels,
                              node_labels=reduce_labels(bvh, labels))
    assert np.all(nearest.found)
    assert batched_knn(bvh, bvh.points, 3).positions.shape == (bvh.n, 3)
    assert emst(pts).edges.shape == (199, 2)


#: The NumPy kernels the reference engine runs: the traversals, the
#: Karras hierarchy, the bound scan, the component minimum and the merge.
NUMPY_KERNELS = ((reference, "nearest_reference"),
                 (reference, "knn_reference"),
                 (build, "_karras_vectorized"),
                 (bounds, "_scan_pairs"),
                 (outgoing, "_component_min"),
                 (merge, "_merge_by_jumping"))


def test_the_compiled_engine_runs_no_numpy_kernel(monkeypatch):
    # A step that fell back to NumPy would give the same answers and
    # counters, and would show only as a slower benchmark.
    ran = []
    for module, name in NUMPY_KERNELS:
        def recorded(*args, _kernel=getattr(module, name), _name=name,
                     **kwargs):
            ran.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    pts = np.random.default_rng(8).random((300, 2))

    def jobs():
        emst(pts)
        mutual_reachability_emst(pts, 4)
        hdbscan(pts, min_cluster_size=5, k_pts=4)

    with traversal_engine("reference"):
        jobs()
    assert set(ran) == {name for _, name in NUMPY_KERNELS}
    ran.clear()
    with traversal_engine("compiled"):
        jobs()
    assert ran == []


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
              "compiled._declare(ctypes.CDLL(str(path)))\n"
              "print(path)\n")
    procs = [_python("-c", script, str(tmp_path)) for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    # Each build went through its own temp file; none is left behind.
    assert [p.name for p in tmp_path.iterdir()] == [Path(*paths).name]
