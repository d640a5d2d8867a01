"""CPU-speed probe: rescales op times to one reference machine speed.

On a shared 2-core box the same job's CPU time swings by up to 2x for
seconds to minutes at a time, on both cores together, from load outside
the machine.  A run's median follows those swings, and run-to-run spreads
of the median reach 15-25%.  The client therefore times a fixed slice of
NumPy and interpreter work, :func:`probe_once`, whenever the node is idle
(before every closed-loop op; in open-loop gaps with nothing in flight),
and each op's time is rescaled by ``REFERENCE_S / (probe time around the
op)``.  Probing concurrently with the node would not do: the node's own
work slows the probe down.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import Sequence, Tuple

from perfbench.analysis import median

#: The probe's duration at the reference speed: a quiet core of the
#: 2-core Xeon box the benchmark was sized on takes ~9.5 ms.
REFERENCE_S = 0.010
#: Slack around an op within which probes count toward its factor.
PAD_S = 0.5


def probe_once() -> float:
    """Seconds for a fixed mix of NumPy sorting and bytecode."""
    import numpy as np

    data = np.arange(20_000.0)[::-1]
    start = time.perf_counter()
    for _ in range(20):
        np.sort(data)
        sum(range(20_000))
    return time.perf_counter() - start


def factor(samples: Sequence[Tuple[float, float]], start: float,
           end: float) -> float:
    """``REFERENCE_S`` over the median probe time near ``[start, end]``.

    ``samples`` are ``(midpoint, duration)`` pairs sorted by midpoint.
    Probes within :data:`PAD_S` of the interval count; with none there,
    the nearest probe does.  Without any probe the factor is 1.
    """
    if not samples:
        return 1.0
    mids = [m for m, _ in samples]
    near = samples[bisect_left(mids, start - PAD_S):
                   bisect_right(mids, end + PAD_S)]
    if not near:
        near = [min(samples, key=lambda s: abs(s[0] - start))]
    return REFERENCE_S / median([d for _, d in near])
