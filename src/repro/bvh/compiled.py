"""Compiled kernels: ``traverse.c`` and ``steps.c`` built once into one
library, called via ctypes.

``traverse.c`` runs the single-pop loop of :mod:`repro.bvh.reference`
one query lane at a time, so every answer and every
:class:`CostCounters` field equals the reference engine's (see the
comment at the top of ``traverse.c``).  ``steps.c`` runs the LBVH build
(Karras' hierarchy, the level schedule, the refit) and the loops of the
Borůvka round steps, each equal byte for byte to the NumPy function it
replaces (see the comment at the top of ``steps.c``).  This module
builds the library, caches it and wraps each kernel with the NumPy
signature, input validation and counter accounting.

Threads: ``repro_nearest`` and ``repro_knn`` split their lanes across
threads in blocks of whole warps, with the same bits at any thread
count (see ``traverse.c``).  Each call leases its threads from one
process-wide count of free cores: the CPUs this process may use, minus
the cores held by running jobs (a worker thread holds one for a whole
job, see :func:`holding_core`) and by the threads of running kernel
calls.  A call of at least two blocks takes ``max(1, min(free,
blocks))``, its own thread included, and returns them when it ends.
So one cold job on a 2-core node runs on both cores, two concurrent
jobs run one thread each, and two concurrent library calls get 2 and 1,
then 1 and 1.

Building: ``cc -O3 -ffp-contract=off -fPIC -shared -pthread`` over both
sources, once per source and flag set.  The library is cached per user as
``~/.cache/repro/kernels-<sha256 of sources and flags>.so``, or, when
that directory cannot be used, under ``repro-<uid>`` in
:func:`tempfile.gettempdir`.  A build writes a temp file and
:func:`os.replace` s it into place, so processes building at once each
load a whole library.  A directory or library that another user owns or
that group or other can write is never loaded.

:func:`load` returns ``None`` when no compiler, cache directory or
library is usable; :mod:`repro.bvh.traversal` then resolves the
``reference`` engine, and the build and round steps run their NumPy code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.bvh.bvh import BVH
from repro.bvh.query import KnnResult, NearestResult, validate_query_points
from repro.errors import ConvergenceError, InvalidInputError
from repro.kokkos.counters import CostCounters

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("traverse.c", "steps.c"))
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

#: Lanes per block of whole warps (``BLOCK_LANES`` in ``traverse.c``).
BLOCK_LANES = 256

#: The :class:`CostCounters` fields of the C counter slots, in order.
COUNTER_FIELDS = ("nodes_visited", "box_distance_evals", "stack_ops",
                  "leaf_visits", "distance_evals", "lane_steps",
                  "warp_steps")

#: The C status codes (``traverse.c`` 1, 3 and 4; ``steps.c`` 1, 5 and
#: from 6).
_ERRORS = {
    1: "child index out of range",
    3: "traversal stack overflow",
    4: "a lane popped more nodes than the tree has (cycle)",
    5: "out of memory",
    6: "Morton codes must be sorted",
    7: "hierarchy contains a cycle or a node with two parents",
    8: "schedule entry out of range",
    9: "component label out of range",
    10: "neighbor position out of range",
}
#: ``steps.c``'s status for a successor cycle longer than 2.
_LONG_CYCLE = 11

_P = ctypes.c_void_p
_I64 = ctypes.c_int64


class BuildError(Exception):
    """The library could not be built or placed safely."""


class _Tree(ctypes.Structure):
    _fields_ = [("n", _I64), ("dim", _I64),
                ("points", _P), ("lo", _P), ("hi", _P),
                ("left", _P), ("right", _P),
                ("stack", _P), ("bound", _P), ("stack_cap", _I64)]


class _Nearest(ctypes.Structure):
    _fields_ = [("queries", _P), ("init_radius_sq", _P),
                ("query_labels", _P), ("node_labels", _P),
                ("query_ids", _P), ("point_ids", _P),
                ("query_core_sq", _P), ("point_core_sq", _P),
                ("best_pos", _P), ("best_sq", _P), ("best_key", _P)]


class _Knn(ctypes.Structure):
    _fields_ = [("queries", _P), ("k", _I64), ("kbest", _P),
                ("kpos", _P)]


# ------------------------------------------------------------------ build

def cache_dirs() -> List[Path]:
    """Where the library may be cached, in order of preference."""
    dirs = [Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]
    try:
        dirs.insert(0, Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory for this uid
        pass
    return dirs


def _private(path: Path, *, is_dir: bool) -> bool:
    """Whether ``path`` is ours, of the expected kind, and not writable by
    group or other (a symlink never qualifies)."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    kind = stat.S_ISDIR if is_dir else stat.S_ISREG
    return (kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _usable_dir(dirs: Iterable[Path]) -> Path:
    for path in dirs:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if _private(path, is_dir=True) and os.access(path, os.W_OK | os.X_OK):
            return path
    raise BuildError("no private, writable cache directory")


def build(dirs: Optional[Iterable[Path]] = None) -> Path:
    """Path of the built library, compiling it on a cache miss.

    ``dirs`` overrides :func:`cache_dirs` (tests).  A cached file that
    fails the ownership and mode check is rebuilt over, never loaded.
    """
    directory = _usable_dir(cache_dirs() if dirs is None else dirs)
    digest = hashlib.sha256()
    for source in SOURCES:
        digest.update(source.read_bytes() + b"\0")
    digest.update(" ".join(CFLAGS).encode())
    target = directory / f"kernels-{digest.hexdigest()[:16]}.so"
    if _private(target, is_dir=False):
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise BuildError("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".kernels-", suffix=".so",
                               dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, *map(str, SOURCES)],
            capture_output=True, text=True, errors="replace", timeout=120,
            check=False)
        if proc.returncode != 0:
            raise BuildError(f"cc failed: {proc.stderr.strip()}")
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if not _private(target, is_dir=False):
        raise BuildError(f"{target} is not private after the build")
    return target


#: ``steps.c``'s entries and their argument types.
_STEPS = {
    "repro_karras": [_P, _P, _I64, _P, _P, _P],
    "repro_schedule": [_P, _P, _I64, _P, _P, _P],
    "repro_refit": [_P, _P, _I64, _I64, _P, _I64, _P, _P],
    "repro_reduce_labels": [_P, _P, _I64, _P, _I64, _P],
    "repro_upper_bounds": [_P, _I64, _I64, _P, _P, _I64, _P, _P],
    "repro_component_min": [_I64, _P, _P, _P, _P, _P, _P, _P, _P, _P,
                            _P],
    "repro_merge": [_I64, _P, _I64, _I64, _P, _P, _P, _P],
}


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    for name in ("repro_nearest", "repro_knn"):
        fn = getattr(lib, name)
        fn.argtypes = [_P, _P, _I64, _I64, _P]
        fn.restype = ctypes.c_int
    for name, argtypes in _STEPS.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


_load_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_failure: Optional[str] = None


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built and loaded on the first call of the
    process; ``None`` when it cannot be (the reason is kept for
    :func:`library`'s error)."""
    global _lib, _failure
    with _load_lock:
        if _lib is None and _failure is None:
            try:
                _lib = _declare(ctypes.CDLL(str(build())))
            except Exception as exc:  # noqa: BLE001 — any failure to build
                # or load (no compiler, no home directory, a bad cached
                # file) means the reference fallback, never a crash.
                _failure = f"{type(exc).__name__}: {exc}"
        return _lib


def library() -> ctypes.CDLL:
    """The loaded library, or :class:`InvalidInputError` saying why not."""
    lib = load()
    if lib is None:
        raise InvalidInputError(
            "the compiled traversal engine is unavailable: "
            f"{_failure or 'its library did not load'}")
    return lib


# ----------------------------------------------------------------- threads

def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


_lease_lock = threading.Lock()
#: Cores that running jobs and the threads of running kernel calls hold.
_held = 0
_holder = threading.local()


@contextmanager
def holding_core() -> Iterator[None]:
    """The calling thread holds one core until the block ends.

    A worker thread runs each job inside this, so a kernel call leases
    helpers only from the cores that no running job holds: the calls of
    a lone job take the idle cores, and concurrent jobs run one thread
    each instead of taking the cores other workers run Python on."""
    global _held
    with _lease_lock:
        _held += 1
    _holder.core = True
    try:
        yield
    finally:
        _holder.core = False
        with _lease_lock:
            _held -= 1


@contextmanager
def _lease(batch: int) -> Iterator[int]:
    """The threads a call over ``batch`` lanes runs on, held until the
    call ends (see the module docstring)."""
    global _held
    blocks = -(-batch // BLOCK_LANES)
    if blocks < 2:
        yield 1
        return
    own = 1 if getattr(_holder, "core", False) else 0  # already counted
    with _lease_lock:
        threads = max(1, min(_cpus() - _held + own, blocks))
        _held += threads - own
    try:
        yield threads
    finally:
        with _lease_lock:
            _held -= threads - own


# ---------------------------------------------------------------- wrappers

def _array(value, dtype, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """``value`` as a C-contiguous array of exactly ``dtype`` and
    ``shape`` — the only form whose pointer reaches C."""
    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.shape != shape:
        raise InvalidInputError(
            f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _ptr(arr: Optional[np.ndarray]) -> Optional[int]:
    return None if arr is None else arr.ctypes.data


def _tree(bvh: BVH, threads: int) -> _Tree:
    """The tree struct, with a stack row per thread; it holds the arrays
    it points into."""
    n, d = bvh.n, bvh.dim
    nodes = 2 * n - 1
    if nodes >= 2 ** 31:
        raise InvalidInputError("tree too large for 32-bit node ids")
    depth = max(bvh.height + 2, 4)
    stack = np.empty(threads * depth, dtype=np.int32)
    bound = np.empty(threads * depth, dtype=np.float64)
    arrays = [_array(bvh.points, np.float64, (n, d), "points"),
              _array(bvh.lo, np.float64, (nodes, d), "lo"),
              _array(bvh.hi, np.float64, (nodes, d), "hi"),
              _array(bvh.left, np.int64, (n - 1,), "left"),
              _array(bvh.right, np.int64, (n - 1,), "right"),
              stack, bound]
    tree = _Tree(n, d, *(a.ctypes.data for a in arrays), depth)
    tree.arrays = arrays
    return tree


def _run(fn, tree: _Tree, args: ctypes.Structure, batch: int,
         counters: Optional[CostCounters], threads: int) -> None:
    """Call a kernel on ``threads`` threads, raise on a malformed tree,
    charge the counters."""
    cnt = np.zeros(len(COUNTER_FIELDS), dtype=np.int64)
    rc = fn(ctypes.byref(tree), ctypes.byref(args), batch, threads,
            _ptr(cnt))
    if rc != 0:
        raise InvalidInputError(
            f"malformed tree: {_ERRORS.get(rc, f'error {rc}')}")
    local = counters if counters is not None else CostCounters()
    local.kernel_launches += 1
    local.max_batch = max(local.max_batch, batch)
    for name, value in zip(COUNTER_FIELDS, cnt.tolist()):
        setattr(local, name, getattr(local, name) + value)


def nearest_compiled(
    bvh: BVH,
    query_points: np.ndarray,
    *,
    query_labels: Optional[np.ndarray] = None,
    node_labels: Optional[np.ndarray] = None,
    init_radius_sq: Optional[np.ndarray] = None,
    query_ids: Optional[np.ndarray] = None,
    point_ids: Optional[np.ndarray] = None,
    query_core_sq: Optional[np.ndarray] = None,
    point_core_sq: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
) -> NearestResult:
    """Constrained nearest neighbor: the reference loop, compiled."""
    lib = library()
    queries = np.ascontiguousarray(validate_query_points(bvh, query_points))
    B, n = queries.shape[0], bvh.n
    radius = None
    if init_radius_sq is not None:
        radius = np.ascontiguousarray(init_radius_sq, dtype=np.float64)
        if radius.shape != (B,):
            raise InvalidInputError(
                "init_radius_sq must have one entry per query")
    if query_labels is not None and node_labels is None:
        raise InvalidInputError("query_labels requires node_labels")
    if query_core_sq is not None and point_core_sq is None:
        raise InvalidInputError("query_core_sq requires point_core_sq")
    if query_ids is not None and point_ids is None:
        raise InvalidInputError("query_ids requires point_ids")

    labels = (None, None)
    if query_labels is not None:
        labels = (_array(query_labels, np.int64, (B,), "query_labels"),
                  _array(node_labels, np.int64, (bvh.n_nodes,),
                         "node_labels"))
    ids = (None, None)
    if query_ids is not None:
        ids = (_array(query_ids, np.uint64, (B,), "query_ids"),
               _array(point_ids, np.uint64, (n,), "point_ids"))
    cores = (None, None)
    if query_core_sq is not None:
        cores = (_array(query_core_sq, np.float64, (B,), "query_core_sq"),
                 _array(point_core_sq, np.float64, (n,), "point_core_sq"))
    best_pos = np.empty(B, dtype=np.int64)
    best_sq = np.empty(B, dtype=np.float64)
    best_key = np.empty(B, dtype=np.uint64)

    args = _Nearest(*(_ptr(a) for a in (
        queries, radius, *labels, *ids, *cores,
        best_pos, best_sq, best_key)))
    with _lease(B) as threads:
        tree = _tree(bvh, threads)
        _run(lib.repro_nearest, tree, args, B, counters, threads)
    return NearestResult(best_pos, best_sq, best_key)


def knn_compiled(
    bvh: BVH,
    query_points: np.ndarray,
    k: int,
    *,
    counters: Optional[CostCounters] = None,
) -> KnnResult:
    """k nearest neighbors: the reference loop, compiled."""
    lib = library()
    queries = np.ascontiguousarray(validate_query_points(bvh, query_points))
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    B = queries.shape[0]
    kbest = np.empty((B, k), dtype=np.float64)
    kpos = np.empty((B, k), dtype=np.int64)

    args = _Knn(_ptr(queries), int(k), _ptr(kbest), _ptr(kpos))
    with _lease(B) as threads:
        tree = _tree(bvh, threads)
        _run(lib.repro_knn, tree, args, B, counters, threads)
    return KnnResult(kpos, kbest)


# ------------------------------------------------------ build and rounds

def selected() -> bool:
    """Whether the build and round steps run in C: they follow the
    traversal engine resolution, so ``compiled`` runs ``steps.c`` and
    ``reference`` the NumPy code it is tested against."""
    from repro.bvh.traversal import get_default_engine  # imports this module
    return get_default_engine() == "compiled"


def _check(rc: int) -> None:
    """Raise on a ``steps.c`` status, as the NumPy step would."""
    if rc == _LONG_CYCLE:
        raise ConvergenceError(
            "component chains failed to collapse; the selected edges "
            "contain a cycle longer than 2 (broken tie-breaking)")
    if rc != 0:
        raise InvalidInputError(
            f"malformed input: {_ERRORS.get(rc, f'error {rc}')}")


def _buffer(arr: np.ndarray, dtype, shape: Tuple[int, ...],
            name: str) -> np.ndarray:
    """``arr`` itself, which C writes into: it must already have exactly
    ``dtype`` and ``shape`` and be C-contiguous."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.shape == shape and arr.flags.c_contiguous
            and arr.flags.writeable):
        raise InvalidInputError(
            f"{name} must be a writable C-contiguous {np.dtype(dtype)} "
            f"array of shape {shape}")
    return arr


def _order(schedule: List[np.ndarray]) -> np.ndarray:
    """The schedule's groups as one array, in processing order."""
    if not schedule:
        return np.empty(0, dtype=np.int64)
    return np.ascontiguousarray(np.concatenate(schedule), dtype=np.int64)


def karras_compiled(codes: np.ndarray, codes_lo: Optional[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(left, right, parent)`` of the LBVH over sorted codes (``n >= 2``;
    ``codes_lo`` for 128-bit codes)."""
    lib = library()
    n = codes.shape[0]
    hi = _array(codes, np.uint64, (n,), "codes")
    lo = None if codes_lo is None else _array(codes_lo, np.uint64, (n,),
                                              "codes_lo")
    left = np.empty(n - 1, dtype=np.int64)
    right = np.empty(n - 1, dtype=np.int64)
    parent = np.empty(2 * n - 1, dtype=np.int64)
    _check(lib.repro_karras(_ptr(hi), _ptr(lo), n, _ptr(left), _ptr(right),
                            _ptr(parent)))
    return left, right, parent


def schedule_compiled(left: np.ndarray, right: np.ndarray,
                      m: int) -> List[np.ndarray]:
    """The bottom-up level schedule of a tree with ``m >= 2`` leaves: one
    array, cut into a view per level."""
    lib = library()
    left = _array(left, np.int64, (m - 1,), "left")
    right = _array(right, np.int64, (m - 1,), "right")
    flat = np.empty(m - 1, dtype=np.int64)
    starts = np.empty(m, dtype=np.int64)
    levels = _I64()
    _check(lib.repro_schedule(_ptr(left), _ptr(right), m, _ptr(flat),
                              _ptr(starts), ctypes.byref(levels)))
    bounds = starts[:levels.value + 1].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def refit_compiled(left: np.ndarray, right: np.ndarray,
                   schedule: List[np.ndarray], lo: np.ndarray,
                   hi: np.ndarray) -> None:
    """Fill the inner rows of ``lo``/``hi`` (``(2m - 1, d)``, leaf rows
    filled) bottom-up along ``schedule``."""
    lib = library()
    nodes, dim = lo.shape
    m = (nodes + 1) // 2
    lo = _buffer(lo, np.float64, (2 * m - 1, dim), "lo")
    hi = _buffer(hi, np.float64, (2 * m - 1, dim), "hi")
    left = _array(left, np.int64, (m - 1,), "left")
    right = _array(right, np.int64, (m - 1,), "right")
    order = _order(schedule)
    _check(lib.repro_refit(_ptr(left), _ptr(right), m, dim, _ptr(order),
                           order.shape[0], _ptr(lo), _ptr(hi)))


def reduce_labels_compiled(bvh: BVH, node_labels: np.ndarray) -> None:
    """Fill the inner entries of ``node_labels`` (leaf entries filled)."""
    lib = library()
    n = bvh.n
    node_labels = _buffer(node_labels, np.int64, (2 * n - 1,),
                          "node_labels")
    left = _array(bvh.left, np.int64, (n - 1,), "left")
    right = _array(bvh.right, np.int64, (n - 1,), "right")
    order = _order(bvh.schedule)
    _check(lib.repro_reduce_labels(_ptr(left), _ptr(right), n, _ptr(order),
                                   order.shape[0], _ptr(node_labels)))


def upper_bounds_compiled(points: np.ndarray, labels: np.ndarray,
                          core_sq: Optional[np.ndarray], window: int,
                          bounds: np.ndarray) -> int:
    """Lower ``bounds`` (``(n,)``, by label) by every cross-component
    Z-curve pair up to ``window`` apart; returns the pairs evaluated."""
    lib = library()
    n, dim = points.shape
    points = _array(points, np.float64, (n, dim), "points")
    labels = _array(labels, np.int64, (n,), "labels")
    core = None if core_sq is None else _array(core_sq, np.float64, (n,),
                                               "core_sq")
    bounds = _buffer(bounds, np.float64, (n,), "bounds")
    pairs = _I64()
    _check(lib.repro_upper_bounds(_ptr(points), n, dim, _ptr(labels),
                                  _ptr(core), int(window), _ptr(bounds),
                                  ctypes.byref(pairs)))
    return pairs.value


def component_min_compiled(labels: np.ndarray, position: np.ndarray,
                           distance_sq: np.ndarray, key: np.ndarray
                           ) -> Tuple[Tuple[int, int, int],
                                      Tuple[np.ndarray, ...]]:
    """Each component's minimum lane candidate under ``(distance, key)``.

    Returns ``(found, picked, active)`` — lanes with a candidate,
    components with one, distinct labels — and the rows ``(component,
    source, target, weight_sq, target_component)`` in ascending label
    order.
    """
    lib = library()
    n = labels.shape[0]
    labels = _array(labels, np.int64, (n,), "labels")
    position = _array(position, np.int64, (n,), "position")
    distance_sq = _array(distance_sq, np.float64, (n,), "distance_sq")
    key = _array(key, np.uint64, (n,), "key")
    rows = [np.empty(n, dtype=dtype) for dtype in (
        np.int64, np.int64, np.int64, np.float64, np.int64)]
    counts = np.zeros(3, dtype=np.int64)
    _check(lib.repro_component_min(
        n, _ptr(labels), _ptr(position), _ptr(distance_sq), _ptr(key),
        *map(_ptr, rows), _ptr(counts)))
    found, picked, active = counts.tolist()
    return (found, picked, active), tuple(row[:picked] for row in rows)


def merge_compiled(labels: np.ndarray, n: int, component: np.ndarray,
                   target_component: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(new_labels, n_components)`` after merging every component into
    the terminal of its successor chain; labels lie in ``[0, n)``."""
    lib = library()
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    k = component.shape[0]
    component = _array(component, np.int64, (k,), "component")
    target_component = _array(target_component, np.int64, (k,),
                              "target_component")
    new_labels = np.empty(labels.shape, dtype=np.int64)
    count = _I64()
    _check(lib.repro_merge(n, _ptr(labels), labels.size, k, _ptr(component),
                           _ptr(target_component), _ptr(new_labels),
                           ctypes.byref(count)))
    return new_labels, count.value
