"""Golden-regression layer: the live suite must reproduce results/*.txt.

``results/f1.txt`` (headline speedups) and ``results/f5.txt`` (DRAM
traffic) are committed artifacts of the evaluation suite at 8 lanes.
Because the simulator is deterministic (see tests/test_determinism.py),
a code change that shifts any per-workload speedup or traffic ratio by
more than the tolerance below is a *behaviour* change and must regenerate
the goldens deliberately (``pytest benchmarks/bench_f1_speedup.py
benchmarks/bench_f5_traffic.py``) rather than slip through.
"""

import re
from pathlib import Path

import pytest

from repro.eval.runner import run_suite

#: Relative tolerance for golden comparisons. The goldens print speedups
#: and ratios to two decimals (quantization <= 0.5% for the smallest
#: ratios in the files), so 1% catches any real change while never
#: flagging formatting round-off.
TOLERANCE = 0.01

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _parse_rows(path: Path) -> list[list[str]]:
    """Rows of the whitespace-aligned table under the dashed rule."""
    lines = path.read_text().splitlines()
    rule = next(i for i, line in enumerate(lines)
                if re.fullmatch(r"[-\s]+", line) and "-" in line)
    rows = []
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def _number(cell: str) -> float:
    """Parse a table cell like ``2,090``, ``2.59x`` or ``0.166``."""
    return float(cell.replace(",", "").rstrip("x"))


@pytest.fixture(scope="module")
def live_suite():
    """One live run of the full evaluation suite at the golden lane count."""
    return {c.workload: c for c in run_suite(lanes=8)}


def test_goldens_cover_the_whole_suite(live_suite):
    golden_names = {row[0] for row in _parse_rows(RESULTS / "f1.txt")}
    assert golden_names == set(live_suite)


def test_f1_speedups_match_golden(live_suite):
    for row in _parse_rows(RESULTS / "f1.txt"):
        name, delta_cyc, static_cyc, speedup = row[0], _number(row[1]), \
            _number(row[2]), _number(row[3])
        live = live_suite[name]
        assert live.cp_bound == pytest.approx(_number(row[6]),
                                              rel=TOLERANCE), \
            f"{name}: critical-path bound drifted from golden f1.txt"
        assert live.speedup == pytest.approx(speedup, rel=TOLERANCE), \
            f"{name}: speedup drifted from golden f1.txt"
        assert live.delta.cycles == pytest.approx(delta_cyc, rel=TOLERANCE), \
            f"{name}: Delta cycles drifted from golden f1.txt"
        assert live.static.cycles == pytest.approx(static_cyc,
                                                   rel=TOLERANCE), \
            f"{name}: static cycles drifted from golden f1.txt"


def test_f5_traffic_ratios_match_golden(live_suite):
    for row in _parse_rows(RESULTS / "f5.txt"):
        name, delta_kib, static_kib, reduction = row[0], _number(row[1]), \
            _number(row[2]), _number(row[3])
        live = live_suite[name]
        assert live.traffic_ratio == pytest.approx(reduction,
                                                   rel=TOLERANCE), \
            f"{name}: traffic ratio drifted from golden f5.txt"
        assert live.delta.dram_bytes / 1024 == pytest.approx(
            delta_kib, rel=TOLERANCE, abs=0.05), \
            f"{name}: Delta DRAM KiB drifted from golden f5.txt"
        assert live.static.dram_bytes / 1024 == pytest.approx(
            static_kib, rel=TOLERANCE, abs=0.05), \
            f"{name}: static DRAM KiB drifted from golden f5.txt"
