"""Distribution-preserving subsampling (the paper's scaling study, §4.3).

"We try to maintain a given distribution by randomly sampling a large
dataset a specified number of times, producing a subset with the same data
distribution" — a uniform random subset without replacement, which is what
random sampling of an empirical distribution means.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInputError


def sample_preserving(points: np.ndarray, m: int, seed: int = 0) -> np.ndarray:
    """Uniform random subset of ``m`` points (without replacement).

    Raises when ``m`` exceeds the population — silently padding would break
    the scaling study's semantics.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise InvalidInputError(f"expected (n, d) points, got {points.shape}")
    n = points.shape[0]
    if not 1 <= m <= n:
        raise InvalidInputError(f"cannot sample {m} of {n} points")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    return points[idx]
