"""Frozen run fingerprints: the repo-wide bit-identity regression gate.

``tests/golden_fingerprints.json`` pins the :func:`comparison_fingerprint`
of every registered workload at two lane counts. Any change to simulated
timing, counter accounting, scheduling order — in either runtime, under
either event engine — shows up here as a named workload×config diff.

This is deliberately stricter than the golden *report* regression
(tests/test_golden_regression.py, 1% tolerance on parsed tables): a
fingerprint flip means bit-level behaviour moved. When a change is
intentional, regenerate the file::

    PYTHONPATH=src python tools/freeze_fingerprints.py

and review the diff like any other golden update. The fingerprints are
engine-independent by the equivalence contract
(tests/test_engine_equivalence.py), so the file does not encode
``REPRO_ENGINE``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional

import pytest

from repro.arch.config import default_delta_config
from repro.eval.runner import compare
from repro.sim.engine import total_events_processed
from repro.sim.faults import FaultPlan
from repro.util.fingerprint import comparison_fingerprint
from repro.workloads.registry import get_workload, workload_names

GOLDEN_PATH = Path(__file__).parent / "golden_fingerprints.json"

LANE_COUNTS = (2, 8)


def golden_points() -> list[tuple[str, int]]:
    """The frozen matrix: every registered workload × each lane count."""
    return [(name, lanes)
            for name in workload_names()
            for lanes in LANE_COUNTS]


def point_key(workload_name: str, lanes: int) -> str:
    return f"{workload_name}@lanes={lanes}"


def measure_point(workload_name: str, lanes: int,
                  faults: Optional[FaultPlan] = None) -> tuple[str, int]:
    """(fingerprint, slots drained) of one matrix point.

    Runs the ordinary Delta-vs-static comparison with a fresh program
    (``verify=False``: functional checking is a separate test concern),
    under ``faults`` if given, digests both sides' :func:`result_stats`
    and counts the scheduling slots the two runs drain.
    """
    config = default_delta_config(lanes=lanes).with_faults(faults)
    before = total_events_processed()
    comparison = compare(get_workload(workload_name), config, verify=False)
    return (comparison_fingerprint(comparison),
            total_events_processed() - before)


@functools.cache
def golden_measurement(workload_name: str, lanes: int) -> tuple[str, int]:
    """:func:`measure_point` of one fault-free golden point, run once per
    session: the fingerprint test here and the slot-count pin in
    tests/test_golden_pins.py read the same ``compare``."""
    return measure_point(workload_name, lanes)


def compute_fingerprint(workload_name: str, lanes: int) -> str:
    """The canonical fingerprint of one matrix point."""
    return golden_measurement(workload_name, lanes)[0]


def load_golden() -> dict[str, str]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["fingerprints"]


def test_golden_file_covers_exactly_the_registry():
    """The frozen file and the workload registry agree on the matrix.

    A newly registered workload (or a renamed one) must be frozen too —
    this fails with the missing/stale keys listed rather than silently
    shrinking the regression surface.
    """
    golden = load_golden()
    expected = {point_key(name, lanes) for name, lanes in golden_points()}
    missing = sorted(expected - set(golden))
    stale = sorted(set(golden) - expected)
    assert not missing and not stale, (
        "golden_fingerprints.json is out of sync with the workload "
        f"registry.\n  missing: {missing}\n  stale: {stale}\n"
        "Regenerate: PYTHONPATH=src python tools/freeze_fingerprints.py")


@pytest.mark.parametrize("workload_name,lanes",
                         golden_points(),
                         ids=[point_key(n, l) for n, l in golden_points()])
def test_fingerprint_matches_golden(workload_name, lanes):
    """Each matrix point still produces its frozen fingerprint."""
    golden = load_golden()
    key = point_key(workload_name, lanes)
    actual = compute_fingerprint(workload_name, lanes)
    assert actual == golden[key], (
        f"bit-identity regression at {key}:\n"
        f"  frozen:  {golden[key]}\n"
        f"  current: {actual}\n"
        "Simulated behaviour changed for this workload/config. If the "
        "change is intentional, regenerate with "
        "PYTHONPATH=src python tools/freeze_fingerprints.py and commit "
        "the diff.")
