"""Shared utilities: deterministic RNG, validation helpers, small math;
the counter bag is :mod:`repro.util.counters`."""

from repro.util.rng import DeterministicRng
from repro.util.fingerprint import (
    comparison_fingerprint,
    result_fingerprint,
    result_stats,
    stable_hash,
)
from repro.util.validate import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_power_of_two,
)
from repro.util.stats import (
    geomean,
    mean,
    coefficient_of_variation,
    percentile,
    Histogram,
)

__all__ = [
    "DeterministicRng",
    "stable_hash",
    "result_stats",
    "result_fingerprint",
    "comparison_fingerprint",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_power_of_two",
    "geomean",
    "mean",
    "coefficient_of_variation",
    "percentile",
    "Histogram",
]
