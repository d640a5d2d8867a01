"""Rate metrics used throughout the paper's evaluation.

The paper measures throughput in *features per second*: ``n * d / t`` where
``n`` is the number of points, ``d`` the dimension and ``t`` the time in
seconds (Section 4).  ``MFeatures/sec`` is that rate divided by 1e6.  The
dimension factor makes 2D and 3D datasets comparable on one axis, which the
paper uses to argue dimension-agnostic performance.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Default latency bucket upper bounds, in seconds.  Geometric-ish 1-2.5-5
#: spacing from 0.5 ms to 30 s: tight enough at the bottom that a warm
#: result-cache hit (~1 ms) and a cold 20k-point job (~100 ms+) land many
#: buckets apart, wide enough at the top to catch long-poll tails.  An
#: implicit +Inf overflow bucket always exists on top.
DEFAULT_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                           0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def features(n_points: int, dimension: int) -> int:
    """Number of *features* in a dataset: ``n * d``.

    >>> features(1000, 3)
    3000
    """
    if n_points < 0:
        raise ValueError(f"negative number of points: {n_points}")
    if dimension <= 0:
        raise ValueError(f"non-positive dimension: {dimension}")
    return n_points * dimension


def features_per_second(n_points: int, dimension: int, seconds: float) -> float:
    """The paper's throughput metric ``n * d / t`` in features/second."""
    if seconds <= 0:
        raise ValueError(f"non-positive duration: {seconds}")
    return features(n_points, dimension) / seconds


def mfeatures_per_second(n_points: int, dimension: int, seconds: float) -> float:
    """Throughput in millions of features per second (MFeatures/sec).

    >>> mfeatures_per_second(1_000_000, 3, 3.0)
    1.0
    """
    return features_per_second(n_points, dimension, seconds) / 1e6


def hit_rate(hits: int, misses: int) -> float:
    """Cache hit rate ``hits / (hits + misses)``, 0.0 for an untouched cache.

    The engine's cache tiers (:mod:`repro.store`) report their
    effectiveness through this helper so cache numbers use one convention
    everywhere.

    >>> hit_rate(3, 1)
    0.75
    >>> hit_rate(0, 0)
    0.0
    """
    if hits < 0 or misses < 0:
        raise ValueError(f"negative counter: hits={hits} misses={misses}")
    total = hits + misses
    return hits / total if total else 0.0


def fleet_hit_rate(counts: Iterable[Tuple[int, int]]) -> float:
    """Pooled cache hit rate over several nodes' ``(hits, misses)`` pairs.

    Pooling (sum of hits over sum of lookups) weights every lookup equally,
    so a busy node counts for more than an idle one — averaging the
    per-node rates instead would let one cold, idle node drag the fleet
    number down.  An untouched fleet reports 0.0 like :func:`hit_rate`.

    >>> fleet_hit_rate([(3, 1), (0, 0), (5, 3)])
    0.6666666666666666
    >>> fleet_hit_rate([])
    0.0
    """
    total_hits = total_misses = 0
    for hits, misses in counts:
        if hits < 0 or misses < 0:
            raise ValueError(f"negative counter: hits={hits} misses={misses}")
        total_hits += hits
        total_misses += misses
    return hit_rate(total_hits, total_misses)


def fleet_mfeatures_per_second(features: Iterable[int],
                               busy_seconds: Iterable[float]) -> float:
    """Pooled compute throughput over per-node feature and busy-time sums.

    Total features processed across the fleet divided by total worker-busy
    seconds, in MFeatures/sec — the fleet-level analogue of the per-node
    scheduler stat.  Returns 0.0 for an idle fleet (no busy time or no
    features), mirroring how the scheduler reports an idle node.

    >>> fleet_mfeatures_per_second([2_000_000, 1_000_000], [2.0, 1.0])
    1.0
    >>> fleet_mfeatures_per_second([], [])
    0.0
    """
    total_features = 0
    for count in features:
        if count < 0:
            raise ValueError(f"negative feature count: {count}")
        total_features += count
    total_busy = 0.0
    for seconds in busy_seconds:
        if seconds < 0:
            raise ValueError(f"negative busy time: {seconds}")
        total_busy += seconds
    if total_busy <= 0 or total_features == 0:
        return 0.0
    return mfeatures_per_second(total_features, 1, total_busy)


class Histogram:
    """A fixed-bucket latency histogram: poolable, quantile-computable.

    Observations are counted into buckets bounded above by ``bounds`` (a
    strictly increasing sequence) plus an implicit ``+Inf`` overflow
    bucket, alongside a running ``sum`` and ``count`` — exactly the
    Prometheus histogram data model, so the registry can expose it
    verbatim.  Instances with equal bounds pool by adding their buckets,
    which is how fleet aggregation must work: **pool buckets,
    never average quantiles** (a p99 of per-node p99s is meaningless; the
    p99 of the pooled buckets weights every observation equally, the same
    argument as :func:`fleet_hit_rate`).

    >>> h = Histogram(bounds=(1.0, 2.0, 4.0))
    >>> for value in (0.5, 1.5, 3.0, 3.5):
    ...     h.observe(value)
    >>> h.count, h.sum
    (4, 8.5)
    >>> h.quantile(0.5)
    2.0
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds must strictly increase: {bounds}")
        self.bounds = bounds
        #: Per-bucket observation counts; the last entry is the +Inf
        #: overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Count one observation (bucket semantics: ``value <= bound``)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated by linear bucket interpolation.

        The rank ``q * count`` is located in the cumulative bucket counts
        and interpolated linearly inside its bucket (lower edge 0.0 for
        the first bucket — latencies are non-negative).  Observations in
        the overflow bucket clamp to the largest finite bound, and an
        empty histogram reports 0.0.

        >>> h = Histogram(bounds=(1.0, 2.0, 4.0))
        >>> for value in (0.5, 1.5, 3.0, 3.5):
        ...     h.observe(value)
        >>> h.quantile(0.25)
        1.0
        >>> h.quantile(1.0)
        4.0
        >>> Histogram(bounds=(1.0,)).quantile(0.99)
        0.0
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= rank:
                if self.counts[i] == 0:
                    return lower
                fraction = (rank - previous) / self.counts[i]
                return lower + fraction * (bound - lower)
            lower = bound
        return self.bounds[-1]  # rank fell in the +Inf overflow bucket

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`as_dict` form."""
        out = cls(bounds=data["bounds"])
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(out.counts):
            raise ValueError(
                f"expected {len(out.counts)} bucket counts, "
                f"got {len(counts)}")
        if any(n < 0 for n in counts):
            raise ValueError(f"negative bucket count in {counts}")
        out.counts = counts
        out.sum = float(data["sum"])
        out.count = int(data["count"])
        return out


def jobs_per_second(n_jobs: int, seconds: float) -> float:
    """Service throughput in completed jobs per second.

    >>> jobs_per_second(10, 2.0)
    5.0
    """
    if n_jobs < 0:
        raise ValueError(f"negative job count: {n_jobs}")
    if seconds <= 0:
        raise ValueError(f"non-positive duration: {seconds}")
    return n_jobs / seconds


def speedup(baseline_seconds: float, improved_seconds: float) -> float:
    """Ratio ``baseline / improved`` — how many times faster the latter is."""
    if baseline_seconds <= 0 or improved_seconds <= 0:
        raise ValueError("durations must be positive")
    return baseline_seconds / improved_seconds
