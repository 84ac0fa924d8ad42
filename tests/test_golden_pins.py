"""Frozen pins for what the golden fingerprints do not cover.

``tests/golden_pins.json`` pins two things next to
``tests/golden_fingerprints.json``:

- ``slots``: the number of scheduling slots each golden point drains
  (Delta run plus static run). It is the same on both event kernels. A
  change that adds or drops a slot inside a cycle can keep every cycle
  count and counter, and so every fingerprint; it cannot keep this.
- ``rich_plan``: the comparison fingerprint of every registered workload
  at 4 lanes under ``tests/test_faults.py``'s ``RICH_PLAN``, which
  exercises lane fail-stop, task retries, NoC drops and DRAM spikes. No
  golden point runs a fault path.

Both are regenerated with the golden fingerprints, by
``PYTHONPATH=src python tools/freeze_fingerprints.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads.registry import workload_names
from tests.test_faults import RICH_PLAN
from tests.test_golden_fingerprints import (
    golden_measurement,
    golden_points,
    measure_point,
    point_key,
)

PINS_PATH = Path(__file__).parent / "golden_pins.json"

#: Lane count of the fault-plan pins.
RICH_PLAN_LANES = 4


def rich_plan_points() -> list[str]:
    return [point_key(name, RICH_PLAN_LANES) for name in workload_names()]


def load_pins() -> dict:
    with PINS_PATH.open() as handle:
        return json.load(handle)


def test_pins_cover_exactly_the_registry():
    pins = load_pins()
    assert sorted(pins["slots"]) == sorted(
        point_key(name, lanes) for name, lanes in golden_points())
    assert sorted(pins["rich_plan"]) == sorted(rich_plan_points())


@pytest.mark.parametrize("workload_name,lanes", golden_points(),
                         ids=[point_key(n, l) for n, l in golden_points()])
def test_slot_count_matches_pin(workload_name, lanes):
    """Each golden point still drains its frozen number of slots."""
    key = point_key(workload_name, lanes)
    _fingerprint, slots = golden_measurement(workload_name, lanes)
    assert slots == load_pins()["slots"][key], (
        f"{key} drained {slots} slots; the pin says "
        f"{load_pins()['slots'][key]}")


@pytest.mark.parametrize("workload_name", workload_names(),
                         ids=rich_plan_points())
def test_rich_plan_fingerprint_matches_pin(workload_name):
    """Each workload still degrades bit-identically under ``RICH_PLAN``."""
    key = point_key(workload_name, RICH_PLAN_LANES)
    fingerprint, _slots = measure_point(workload_name, RICH_PLAN_LANES,
                                        faults=RICH_PLAN)
    assert fingerprint == load_pins()["rich_plan"][key], (
        f"fault-path regression at {key} under RICH_PLAN")
