"""Wall-clock phase timing utilities.

The paper reports per-phase timings (Figure 8: ``T_tree``, ``T_mst`` for the
single-tree algorithm; ``T_tree``, ``T_wspd``, ``T_mst``, ``T_mark`` for
MemoGFK).  :class:`PhaseTimer` accumulates named phases so that every
algorithm in this repository can expose the same breakdown.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

# Thread -> active-phase registry.  Every `PhaseTimer.phase()` entry pushes
# the phase name onto the calling thread's stack and pops it on exit, so an
# out-of-band observer (the sampling profiler in `repro.obs.profiler`) can
# attribute a wall-clock sample of any thread to the engine phase it is
# executing.  Phase names are exactly the span-child names the trace layer
# emits (`resolve`, `tree`, `core`, `mst`, `tree_build`, `compute`, ...),
# which is what ties profiler samples back to spans.  Entries are removed
# as soon as a thread's stack empties, so an idle process holds no state.
# Individual dict/list operations are atomic under the GIL; `phase()` only
# ever touches its own thread's stack, and readers take defensive copies.
_PHASE_STACKS: Dict[int, List[str]] = {}


def _push_phase(name: str) -> None:
    ident = threading.get_ident()
    stack = _PHASE_STACKS.get(ident)
    if stack is None:
        stack = []
        _PHASE_STACKS[ident] = stack
    stack.append(name)


def _pop_phase() -> None:
    ident = threading.get_ident()
    stack = _PHASE_STACKS.get(ident)
    if stack:
        stack.pop()
    if not stack:
        _PHASE_STACKS.pop(ident, None)


def active_phases() -> Dict[int, str]:
    """Snapshot of {thread ident: innermost active phase}."""
    snapshot: Dict[int, str] = {}
    for ident, stack in list(_PHASE_STACKS.items()):
        if stack:
            try:
                snapshot[ident] = stack[-1]
            except IndexError:  # pragma: no cover - raced an exiting phase
                continue
    return snapshot


def phase_registry_size() -> int:
    """Number of threads currently inside at least one phase."""
    return len(_PHASE_STACKS)


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    A phase may be entered multiple times; durations accumulate.  Phases are
    reported in first-entry order, which matches the execution order of the
    pipelines in this library.

    Example
    -------
    >>> timer = PhaseTimer()
    >>> with timer.phase("tree"):
    ...     pass
    >>> with timer.phase("mst"):
    ...     pass
    >>> list(timer.totals) == ["tree", "mst"]
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring one entry into phase ``name``."""
        start = time.perf_counter()
        _push_phase(name)
        try:
            yield
        finally:
            _pop_phase()
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to phase ``name`` without running a block."""
        if seconds < 0:
            raise ValueError(f"negative duration for phase {name!r}: {seconds}")
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        """Sum over all phases, in seconds."""
        return sum(self.totals.values())

    def get(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 if never entered)."""
        return self.totals.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """A copy of the phase table (phase name -> seconds)."""
        return dict(self.totals)


@contextmanager
def stopwatch() -> Iterator["_Stopwatch"]:
    """Measure a block; read ``.seconds`` afterwards.

    >>> with stopwatch() as sw:
    ...     pass
    >>> sw.seconds >= 0.0
    True
    """
    sw = _Stopwatch()
    start = time.perf_counter()
    try:
        yield sw
    finally:
        sw.seconds = time.perf_counter() - start


class _Stopwatch:
    """Result holder for :func:`stopwatch`."""

    seconds: float = 0.0
