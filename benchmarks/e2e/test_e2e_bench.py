"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

Not part of tier-1: they drive the benchmark in ``--smoke`` mode, a small
fraction of the work through the same code paths, in real subprocesses.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from common import BENCHMARK_JSON, ROOT, WORKLOADS, load_benchmark

RUN = Path(__file__).with_name("run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, timeout: float = 120):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of every workload, timed and traced."""
    out = tmp_path_factory.mktemp("e2e-smoke")
    proc = run("--smoke", "--out", str(out), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(p.read_text()) for p in out.glob("*.json")
               if not p.name.endswith(".trace.json")]
    return last_json(proc), results, out


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    summary, results, out = smoke
    bench = load_benchmark()
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        for workload in WORKLOADS:
            (result,) = [r for r in results if r["workload"] == workload
                         and r["trace"] == trace]
            assert {name: m["unit"] for name, m in
                    result["metrics"].items()} == declared
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
    assert len(list(out.glob("*.trace.json"))) == len(WORKLOADS)


def test_names_are_well_formed():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]] + [
        m["name"] for kind in ("end_to_end", "per_layer")
        for m in bench[kind]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_traced_and_untraced_digests_agree(smoke):
    _summary, results, _out = smoke
    for workload in WORKLOADS:
        digests = {r["exact"]["digest"] for r in results
                   if r["workload"] == workload}
        assert len(digests) == 1, (workload, digests)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_digest(smoke, workload, tmp_path):
    _summary, results, _out = smoke
    (seed0,) = [r["exact"]["digest"] for r in results
                if r["workload"] == workload and r["trace"] == 0]

    def digest(seed: int) -> str:
        proc = run("--smoke", "--workload", workload, "--seed", str(seed),
                   "--out", str(tmp_path / str(seed)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        (path,) = (tmp_path / str(seed)).glob("*.json")
        return json.loads(path.read_text())["exact"]["digest"]

    assert digest(0) == seed0
    assert digest(1) != seed0


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- compare.py verdicts on synthetic results --------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([v * 1.10 for v in BASE], "higher", 0.05, "gain"),
    ([v * 0.90 for v in BASE], "lower", 0.05, "gain"),
    ([v * 0.90 for v in BASE], "higher", 0.05, "regression"),
    ([v * 1.02 for v in BASE], "lower", 0.05, "within-bound"),
    (list(reversed(BASE)), "higher", 0.05, "within-bound"),
    ([v * 1.10 for v in BASE[:9]], "higher", 0.05, "too-few-pairs"),
])
def test_verdicts(change, better, bound, expected):
    assert compare.verdict(BASE, change, better, bound) == expected


def test_wide_spread_is_unresolved():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0,
             100.0]
    shifted = [v * 0.97 for v in noisy]
    assert compare.verdict(noisy, shifted, "higher", 0.05) == "unresolved"
    better = [v + 50.0 for v in noisy]
    assert compare.verdict(noisy, better, "higher", 0.05) == "gain"


def _result(workload, seed, value, digest="d0", failed=0, trace=0):
    bench = load_benchmark()
    kind = "per_layer" if trace else "end_to_end"
    return {"workload": workload, "seed": seed, "trace": trace,
            "stamp": seed, "correct": not failed, "failed": failed,
            "exact": {"digest": digest},
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in bench[kind]}}


def test_compare_rows():
    bench = load_benchmark()
    parent = [_result("sweep-cold", s, 100.0 + s % 3) for s in range(10)]
    change = [_result("sweep-cold", s, 100.0 + s % 3) for s in range(10)]
    change[3] = _result("sweep-cold", 3, 100.0, digest="d1", failed=1)
    rows = compare.compare(parent, change, bench)
    verdicts = {(row[1], row[4]) for row in rows}
    assert ("digest seed=3", "MISMATCH") in verdicts
    assert ("digest seed=4", "match") in verdicts
    assert ("run seed=3", "FAILED") in verdicts
    metric_rows = [row for row in rows if row[1] == "points_per_s"]
    assert [row[0] for row in metric_rows] == ["sweep-cold"]
