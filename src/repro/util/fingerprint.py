"""Stable hashing and run-result fingerprints — the determinism contract.

The evaluation harness promises that a given (workload, machine config,
code version) point always produces bit-identical statistics: every
stochastic component draws from :mod:`repro.util.rng`, which seeds from the
configuration rather than from process state. This module turns that
promise into something checkable and cacheable:

- :func:`stable_hash` — a SHA-256 digest over canonical reprs, identical
  across processes and interpreter restarts (unlike builtin ``hash``).
- :func:`result_stats` / :func:`result_fingerprint` — the canonical tuple
  of everything an experiment reads from a run (a live
  :class:`RunResult` or its pure-data :class:`RunRecord`), and its
  digest. Two runs are "bit-identical" exactly when these match.
- :func:`comparison_fingerprint` — the same for a Delta-vs-static pair.

The on-disk result cache stores the fields a comparison fingerprint
covers behind a digest of their bytes, so a corrupted or stale entry is
detected on load (:mod:`repro.eval.cache`), and the determinism tests
assert fingerprint equality instead of hand-picking fields.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine.result import RunRecord, RunResult
    from repro.eval.runner import Comparison
    from repro.workloads.base import Workload

_SCALAR_TYPES = (bool, int, float, str, bytes, type(None))


def stable_hash(*parts: object) -> str:
    """SHA-256 hex digest over the reprs of ``parts``, joined by ``\\x1f``.

    ``repr`` of floats is exact (shortest round-trip form), so two floats
    hash equal iff they are bit-identical; builtin ``hash`` is avoided
    because string hashing is salted per process.
    """
    return hashlib.sha256(
        "\x1f".join(repr(p) for p in parts).encode()).hexdigest()


def _stable_repr(value: object) -> bool:
    """Whether ``repr(value)`` is the same in every process: a scalar, or
    a tuple of such values."""
    if isinstance(value, tuple):
        return all(_stable_repr(v) for v in value)
    return isinstance(value, _SCALAR_TYPES)


def workload_identity(workload: "Workload") -> tuple:
    """Stable identity of a workload instance: its class path, display
    name and bound constructor arguments
    (:attr:`~repro.workloads.base.Workload.arguments`, defaults applied).

    Nothing the workload generates is part of it. Inputs are a
    deterministic function of those arguments (the determinism contract),
    so keying never generates them, and the tuple's ``repr`` is the same
    in every process. The evaluation result cache keys its entries by
    (code version, configs, ..., workload identity). Raises
    :class:`TypeError` naming any argument whose repr could differ
    between processes.
    """
    cls = type(workload)
    for parameter, value in workload.arguments:
        if not _stable_repr(value):
            raise TypeError(
                f"{cls.__qualname__} argument {parameter}={value!r} has no "
                f"stable repr; workload arguments must be None, bool, int, "
                f"float, str, bytes or tuples of them")
    return (f"{cls.__module__}.{cls.__qualname__}", workload.name,
            workload.arguments)


def workload_cache_key(workload: "Workload") -> str:
    """Digest of :func:`workload_identity`: equal for two instances
    exactly when they build the same program."""
    return stable_hash(*workload_identity(workload))


def result_stats(result: "RunResult | RunRecord") -> tuple:
    """Canonical tuple of every statistic the harness reads from a run.

    Covers the machine and program names, cycles, task count, the
    per-lane busy vector, and the sorted snapshot of the full counter bag
    (DRAM/NoC bytes, multicast and pipeline counters, ...). Excludes
    ``state`` (verified separately against the reference implementation)
    and ``trace`` (absent in evaluation runs). A :class:`RunRecord`'s six
    fields are this tuple, returned as stored; a live :class:`RunResult`
    converts its values.
    """
    return result.stats


def result_fingerprint(result: "RunResult | RunRecord") -> str:
    """Digest of :func:`result_stats` — equal iff stats are bit-identical."""
    return stable_hash(result_stats(result))


def comparison_fingerprint(comparison: "Comparison") -> str:
    """Digest of both sides of a Delta-vs-static comparison."""
    return stable_hash(comparison.workload,
                       result_stats(comparison.delta),
                       result_stats(comparison.static))
