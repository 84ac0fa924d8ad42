"""Tests for the experiment functions (repro.eval.experiments).

Every experiment runs here at reduced size (custom workload lists or
narrow sweeps where the function supports them), checking the structure
of the returned data and the core shape claims on fast inputs. The
full-size shape assertions live in benchmarks/.
"""

import pytest

from repro.eval.experiments import (
    ABLATION_STEPS,
    ALL_EXPERIMENTS,
    a1_design_sensitivity,
    f1_headline_speedup,
    f2_ablation,
    f3_lane_scaling,
    f6_granularity,
    f7_policies,
    f8_energy,
    f10_software_runtime,
    r1_resilience,
    t1_machine_config,
    t2_workload_table,
    t3_area,
)
from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

FAST = [SkewedTasks(num_tasks=16), SharedReadTasks(num_tasks=8)]


def test_all_experiments_registered():
    assert set(ALL_EXPERIMENTS) == {
        "T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7",
        "F8", "F9", "F10", "A1", "R1"}


def test_t1_structure():
    result = t1_machine_config()
    assert result.experiment_id == "T1"
    assert str(result).startswith("== T1")


def test_t2_handles_minimal_describe():
    class Bare(SkewedTasks):
        def describe(self):
            return {"name": "bare"}

    result = t2_workload_table([Bare(num_tasks=4)])
    assert result.data[0][0] == "bare"


def test_f1_small():
    result = f1_headline_speedup(lanes=2, workloads=FAST)
    assert len(result.data) == 2
    assert all(c.speedup > 0 for c in result.data)


def test_f1_bound_belongs_to_each_instance():
    # Both instances are named "skewed"; each row still carries the bound
    # of its own program.
    result = f1_headline_speedup(lanes=8, workloads=[
        SkewedTasks(num_tasks=8), SkewedTasks(num_tasks=64)])
    assert [c.workload for c in result.data] == ["skewed", "skewed"]
    detail = result.text.split("\n\n")[-1].splitlines()[2:]
    assert [row.split()[-1] for row in detail] == ["1.95x", "6.34x"]


def test_f2_ladder_structure():
    result = f2_ablation(lanes=2, workloads=[SharedReadTasks(num_tasks=8)])
    assert set(result.data["per_step"]) == {l for l, _ in ABLATION_STEPS}
    rows = result.data["rows"]
    assert rows[-1][0] == "GEOMEAN"


def test_f3_small_sweep():
    result = f3_lane_scaling(lane_counts=(2, 4), workloads=FAST)
    assert result.data["lanes"] == [2, 4]
    assert len(result.data["speedup"]) == 2
    # Self-scaling is relative to the first lane count.
    assert result.data["delta_scaling"][0] == pytest.approx(1.0)


def test_f6_small_sweep():
    result = f6_granularity(lanes=2, rows_per_task=(8, 32))
    assert result.data["rows_per_task"] == [8, 32]
    assert all(c > 0 for c in result.data["delta_cycles"])


def test_f7_small():
    result = f7_policies(lanes=2, workload_names=("micro-skewed",))
    per_policy = result.data["per_policy"]
    assert per_policy["work-aware"] == [1.0]
    assert len(per_policy) == 4


def test_f8_small():
    result = f8_energy(lanes=2, workloads=[SharedReadTasks(num_tasks=8)])
    assert result.data["ratios"][0] > 1.0
    assert "GEOMEAN" in result.text


def test_f10_small():
    result = f10_software_runtime(lanes=2,
                                  workloads=[SkewedTasks(num_tasks=12)])
    assert result.data["vs_software"][0] > 1.0
    assert len(result.data["grain_ratios"]) == 3


def test_t3_rows_cover_task_hardware():
    result = t3_area()
    labels = [label for label, _v in result.data.rows()]
    assert "task queues" in labels
    assert "work-aware dispatcher" in labels


def test_a1_data_lengths_consistent():
    result = a1_design_sensitivity(lanes=2)
    d = result.data
    assert len(d["windows"]) == len(d["window_cycles"]) \
        == len(d["window_fetches"])
    assert len(d["chunks"]) == len(d["chunk_cycles"])
    assert len(d["depths"]) == len(d["depth_cycles"])


def test_r1_small():
    result = r1_resilience(lanes=2, workloads=FAST, rates=(0.0, 0.05),
                           jobs=1)
    d = result.data
    assert result.experiment_id == "R1"
    assert len(d["speedups"]) == len(d["rates"]) == 2
    assert d["delta_throughput"][0] == pytest.approx(1.0)
    assert d["static_throughput"][0] == pytest.approx(1.0)
    assert d["zero_fault_overhead"] == 0


def test_experiment_result_str_includes_id_and_title():
    result = t1_machine_config()
    text = str(result)
    assert "T1" in text and "machine configuration" in text
