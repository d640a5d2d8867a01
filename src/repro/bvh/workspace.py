"""Reusable scratch memory for the traversal kernels.

Every batched traversal needs the same transient arrays: a traversal
stack per lane and its stack pointers (the reference engine), or a
``(threads, depth)`` block of stack and bound rows, one row per thread
of a kernel call, each reused lane by lane (the compiled engine).
Allocating them anew for every kernel launch is pure overhead — the
Borůvka loop launches one traversal per round over the same batch
width, and a serving worker launches thousands over similarly-sized
jobs.

:class:`TraversalWorkspace` is a tiny arena: named buffers that grow
monotonically and are handed out as views.  A workspace is *not* thread
safe — it models the per-stream scratch memory a GPU implementation would
allocate once per worker; give each worker thread its own (see
:func:`repro.service.executor.execute_spec`).  The helper threads of one
compiled kernel call share their caller's workspace, each on its own
rows, and are joined before the call returns.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
        #: Number of (re)allocations performed, for tests and diagnostics.
        self.allocations = 0

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

    def stack_for(self, batch: int, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-lane traversal stack ``(batch, >= depth)`` plus zeroed
        stack pointers."""
        rows, cols = self._stack.shape
        if rows < batch or cols < depth:
            self._stack = np.empty((max(rows, batch), max(cols, depth)),
                                   dtype=np.int32)
            self.allocations += 1
        sp = self.take("__sp__", batch, np.int64)
        sp[:] = 0
        return self._stack[:batch], sp

    @property
    def nbytes(self) -> int:
        """Total bytes held: the stack and the flat buffers."""
        return self._stack.nbytes + sum(b.nbytes for b in self._flat.values())
