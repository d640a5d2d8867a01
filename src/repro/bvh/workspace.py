"""Reusable scratch memory for the wavefront traversal kernels.

Every batched traversal needs the same transient arrays: a per-lane
traversal stack, stack pointers, and assorted per-lane / per-candidate
scratch.  Allocating them anew for every kernel launch is pure overhead —
the Borůvka loop launches one traversal per round over the same batch
width, and a serving worker launches thousands over similarly-sized jobs.

:class:`TraversalWorkspace` is a tiny arena: named buffers that grow
monotonically and are handed out as views.  A workspace is *not* thread
safe — it models the per-stream scratch memory a GPU implementation would
allocate once per worker; give each worker thread its own (see
:func:`repro.service.executor.execute_spec`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


class TraversalWorkspace:
    """Grow-only arena of named scratch arrays for traversal kernels.

    Buffers are keyed by name and dtype; a request is served from the
    existing allocation when it is large enough, otherwise the buffer is
    reallocated (with headroom) and the old one dropped.  Returned arrays
    are *views* of arena memory: valid until the next request for the same
    name, never guaranteed to be zeroed.
    """

    #: Growth factor applied on reallocation so repeated near-miss sizes
    #: don't trigger a realloc cascade.
    _HEADROOM = 1.25

    def __init__(self) -> None:
        self._flat: Dict[str, np.ndarray] = {}
        self._stack: np.ndarray = np.empty((0, 0), dtype=np.int32)
        self._dist: np.ndarray = np.empty((0, 0), dtype=np.float64)
        #: Single-slot cache of the current tree's self-query plan,
        #: ``(bvh_uid, QueryPlan)`` — one plan serves every Borůvka round
        #: and the core-distance pass over the same tree.
        self._plan = None
        #: Single-slot cache of the current tree's per-dimension
        #: coordinates, ``(bvh_uid, TreeCoords)`` — rebuilt per tree, not
        #: per kernel launch.
        self._coords = None
        #: Number of (re)allocations performed, for tests and diagnostics.
        self.allocations = 0

    # ----------------------------------------------------------- query plans

    def plan_for(self, bvh):
        """The tree's :class:`~repro.bvh.plan.QueryPlan`, built on miss.

        Returns ``(plan, built)`` — ``built`` tells the caller to charge
        the plan's construction work to its counters.  Single-slot cache:
        a workspace follows one job (hence one tree) at a time.
        """
        from repro.bvh.plan import build_query_plan
        if self._plan is not None and self._plan[0] == bvh.uid:
            return self._plan[1], False
        plan = build_query_plan(bvh, self.coords_for(bvh))
        self._plan = (bvh.uid, plan)
        self.allocations += 1
        return plan, True

    def coords_for(self, bvh):
        """The tree's :class:`~repro.bvh.plan.TreeCoords`, cached per tree.

        The kernels gather each dimension of points and boxes from its own
        contiguous array; the copy is a pure function of the immutable
        tree, so it is built once per tree rather than once per launch.
        """
        from repro.bvh.plan import tree_coords
        if self._coords is not None and self._coords[0] == bvh.uid:
            return self._coords[1]
        coords = tree_coords(bvh)
        self._coords = (bvh.uid, coords)
        self.allocations += 1
        return coords

    # ------------------------------------------------------------- flat view

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """A ``(size,)`` view of the arena buffer ``name``.

        Contents are unspecified; callers must fully initialize what they
        read.  Requesting a name again invalidates the previous view.
        """
        buf = self._flat.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            cap = max(int(size * self._HEADROOM), size, 16)
            buf = np.empty(cap, dtype=dtype)
            self._flat[name] = buf
            self.allocations += 1
        return buf[:size]

    # ----------------------------------------------------- traversal stacks

    def stack_for(self, batch: int, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-lane traversal stack ``(batch, >= depth)`` plus pointers.

        The stack keeps its full column capacity (callers may push past
        ``depth`` up to the allocated width and call :meth:`grow_stack`
        beyond that); the stack pointer view is zeroed.
        """
        stack, _, sp = self.stacks_for(batch, depth, with_dist=False)
        return stack, sp

    def stacks_for(self, batch: int, depth: int, *, with_dist: bool = True
                   ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Node stack, optional aligned distance stack, and zeroed pointers.

        The distance stack carries each pushed node's point-box lower
        bound, so the wavefront re-test is a comparison instead of a
        recomputed box distance.
        """
        rows, cols = self._stack.shape
        if rows < batch or cols < depth:
            new_rows = max(rows, batch)
            new_cols = max(cols, depth)
            self._stack = np.empty((new_rows, new_cols), dtype=np.int32)
            self.allocations += 1
        dist = None
        if with_dist:
            if self._dist.shape[0] < self._stack.shape[0] \
                    or self._dist.shape[1] < self._stack.shape[1]:
                self._dist = np.empty(self._stack.shape, dtype=np.float64)
                self.allocations += 1
            dist = self._dist[:batch]
        sp = self.take("__sp__", batch, np.int64)
        sp[:] = 0
        return self._stack[:batch], dist, sp

    def grow_stack(self, batch: int, depth: int,
                   stack: np.ndarray, sp: np.ndarray,
                   dist: Optional[np.ndarray] = None,
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Widen the stacks to ``depth`` columns, preserving live entries.

        Multi-pop traversal can transiently need more stack than the
        single-pop bound of ``height + 2``; growth doubles so it amortizes.
        """
        rows, cols = self._stack.shape
        live_rows = stack.shape[0]
        if cols < depth:
            new_cols = max(depth, 2 * cols)
            grown = np.empty((max(rows, batch), new_cols), dtype=np.int32)
            grown[:live_rows, :cols] = self._stack[:live_rows]
            self._stack = grown
            self.allocations += 1
            if dist is not None:
                grown_d = np.empty(grown.shape, dtype=np.float64)
                grown_d[:live_rows, :cols] = self._dist[:live_rows, :cols]
                self._dist = grown_d
                self.allocations += 1
        out_dist = self._dist[:batch] if dist is not None else None
        return self._stack[:batch], out_dist

    # -------------------------------------------------------------- metrics

    @property
    def nbytes(self) -> int:
        """Total bytes held: stacks, flat buffers and the cached plan and
        coordinates."""
        held = (self._stack.nbytes + self._dist.nbytes
                + sum(b.nbytes for b in self._flat.values()))
        for cached in (self._plan, self._coords):
            if cached is not None:
                held += cached[1].nbytes
        return held
