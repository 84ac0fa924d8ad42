#!/usr/bin/env python
"""Regenerate ``tests/golden_fingerprints.json`` and ``tests/golden_pins.json``.

Recomputes the comparison fingerprint of every point in the frozen matrix
(the full workload registry × lane counts — the same enumeration
``tests/test_golden_fingerprints.py`` checks against) and rewrites the
golden file. The same runs give the slots each point drains, and every
workload is run once more at 4 lanes under ``RICH_PLAN``; both go into
the pins file that ``tests/test_golden_pins.py`` checks. Run it after an
*intentional* behaviour change::

    PYTHONPATH=src python tools/freeze_fingerprints.py

then review the JSON diffs: each changed key names the workload×config
whose bit-level behaviour moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path,
        default=REPO_ROOT / "tests" / "golden_fingerprints.json",
        help="where to write the frozen fingerprints")
    parser.add_argument(
        "--check", action="store_true",
        help="do not write; exit 1 if the file would change")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT))
    from tests.test_golden_fingerprints import (
        golden_points,
        measure_point,
        point_key,
    )
    from tests.test_golden_pins import PINS_PATH, RICH_PLAN, RICH_PLAN_LANES
    from repro.workloads.registry import workload_names

    fingerprints, slots, rich_plan = {}, {}, {}
    for name, lanes in golden_points():
        key = point_key(name, lanes)
        fingerprints[key], slots[key] = measure_point(name, lanes)
        print(f"  {key:<28} {fingerprints[key][:16]}… {slots[key]} slots")
    for name in workload_names():
        key = point_key(name, RICH_PLAN_LANES)
        rich_plan[key], _slots = measure_point(name, RICH_PLAN_LANES,
                                               faults=RICH_PLAN)
        print(f"  {key:<28} {rich_plan[key][:16]}… under RICH_PLAN")

    regenerate = ("Regenerate with: PYTHONPATH=src python "
                  "tools/freeze_fingerprints.py")
    outputs = {
        args.output: {
            "_comment": ("Frozen comparison fingerprints "
                         f"(workload × lanes). {regenerate}"),
            "fingerprints": fingerprints,
        },
        PINS_PATH: {
            "_comment": (
                "Slots drained by each golden point, and comparison "
                f"fingerprints at {RICH_PLAN_LANES} lanes under "
                f"tests/test_faults.py's RICH_PLAN. {regenerate}"),
            "slots": slots,
            "rich_plan": rich_plan,
        },
    }
    stale = False
    for path, payload in outputs.items():
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.check:
            current = path.read_text() if path.exists() else ""
            if current != text:
                print(f"{path} is stale", file=sys.stderr)
                stale = True
            else:
                print(f"{path} is up to date")
        else:
            path.write_text(text)
            print(f"wrote {path}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
