"""Summary-statistics helpers used by the evaluation harness.

Pure functions over sequences of numbers; no simulator state. A run's
counters are :class:`repro.util.counters.Counters`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of a non-empty sequence of positive numbers.

    Speedup figures report geomeans, following the paper's convention for
    summarizing per-workload speedups.
    """
    if not values:
        raise ValueError("geomean of empty sequence")
    for v in values:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population CV (stddev / mean); 0 for perfectly balanced values.

    Used as the load-imbalance metric: CV of per-lane busy cycles.
    """
    m = mean(values)
    if m == 0:
        return 0.0
    var = sum((v - m) ** 2 for v in values) / len(values)
    return math.sqrt(var) / m


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    value = ordered[lo] * (1 - frac) + ordered[hi] * frac
    # Clamp: float interpolation may land an ulp outside [min, max].
    return min(max(value, ordered[0]), ordered[-1])


class Histogram:
    """A tiny fixed-bucket histogram for distribution summaries in reports."""

    def __init__(self, bucket_width: float) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self._counts: dict[int, int] = {}
        self._n = 0

    def add(self, value: float) -> None:
        """Record one observation."""
        bucket = int(value // self.bucket_width)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._n += 1

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for v in values:
            self.add(v)

    @property
    def total(self) -> int:
        """Number of recorded observations."""
        return self._n

    def buckets(self) -> list[tuple[float, float, int]]:
        """Sorted ``(lo, hi, count)`` triples for non-empty buckets."""
        out = []
        for bucket in sorted(self._counts):
            lo = bucket * self.bucket_width
            out.append((lo, lo + self.bucket_width, self._counts[bucket]))
        return out

    def render(self, width: int = 40) -> str:
        """ASCII rendering, one line per bucket."""
        rows = self.buckets()
        if not rows:
            return "(empty histogram)"
        peak = max(count for _, _, count in rows)
        lines = []
        for lo, hi, count in rows:
            bar = "#" * max(1, round(count / peak * width))
            lines.append(f"[{lo:>10.1f}, {hi:>10.1f}) {count:>8} {bar}")
        return "\n".join(lines)
