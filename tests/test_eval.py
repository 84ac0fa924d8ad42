"""Tests for the evaluation harness (repro.eval)."""

import pickle

import pytest

from repro.arch.config import default_delta_config
from repro.eval import bar_chart, compare, format_table, series_table
from repro.eval.experiments import (
    f1_headline_speedup,
    f2_ablation,
    f4_load_balance,
    f5_traffic,
    t1_machine_config,
    t2_workload_table,
    t3_area,
)
from repro.eval.runner import run_suite, suite_geomean
from repro.machine import RunRecord
from repro.workloads.synthetic import SkewedTasks, SharedReadTasks
from repro.workloads.wavefront import WavefrontWorkload


FAST_WORKLOADS = [SkewedTasks(num_tasks=24), SharedReadTasks(num_tasks=12)]


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["alpha", 1], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        # Layout: title, header, dashes, then the data rows.
        assert "alpha" in lines[3]
        # Numeric column right-aligned.
        assert lines[3].endswith("1")
        assert lines[4].endswith("22")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart(["a", "b"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart(["a"], [0.0])
        assert bar_chart([], []) == "(empty chart)"

    def test_series_table_shape(self):
        text = series_table("x", [1, 2], {"y": [0.5, 1.5]}, title="S")
        assert "1.50" in text

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            series_table("x", [1], {"y": [1.0, 2.0]})


class TestRunner:
    def test_compare_verifies_and_reports(self):
        c = compare(FAST_WORKLOADS[0], default_delta_config(lanes=4))
        assert c.speedup > 0
        assert c.delta.machine == "delta"
        assert c.static.machine == "static"
        assert len(c.row()) == 6

    def test_run_suite_on_custom_workloads(self):
        comparisons = run_suite(lanes=4, workloads=FAST_WORKLOADS)
        assert [c.workload for c in comparisons] == \
            [w.name for w in FAST_WORKLOADS]
        assert suite_geomean(comparisons) > 0

    def test_traffic_ratio(self):
        c = compare(FAST_WORKLOADS[1], default_delta_config(lanes=4))
        assert c.traffic_ratio > 1.0  # shared reads multicast

    def test_compare_returns_pure_data_records(self):
        # wavefront has the largest functional output (~1 MB pickled); it
        # is checked inside compare() and must never leave it.
        c = compare(WavefrontWorkload(), default_delta_config(lanes=8))
        assert len(pickle.dumps(c, pickle.HIGHEST_PROTOCOL)) < 16 * 1024
        for side in (c.delta, c.static):
            assert isinstance(side, RunRecord)
            assert not hasattr(side, "state")
            assert not hasattr(side, "trace")


class TestExperiments:
    def test_t1_includes_all_parameters(self):
        result = t1_machine_config()
        assert result.experiment_id == "T1"
        assert "dispatch policy" in dict(result.data)

    def test_t2_on_custom_workloads(self):
        result = t2_workload_table(FAST_WORKLOADS)
        assert len(result.data) == 2

    def test_f1_on_custom_workloads(self):
        result = f1_headline_speedup(lanes=4, workloads=FAST_WORKLOADS)
        assert len(result.data) == 2
        assert "GEOMEAN" in result.text

    def test_f2_on_custom_workloads(self):
        result = f2_ablation(lanes=4, workloads=[FAST_WORKLOADS[1]])
        per_step = result.data["per_step"]
        assert len(per_step) == 4
        # Multicast must matter for the shared-read microbenchmark.
        assert per_step["+lb+pipe+mcast"][0] > per_step["+lb+pipe"][0]

    def test_f4_on_custom_workloads(self):
        result = f4_load_balance(lanes=4, workloads=[FAST_WORKLOADS[0]])
        c = result.data[0]
        assert c.delta.imbalance_cv <= c.static.imbalance_cv

    def test_f5_on_custom_workloads(self):
        result = f5_traffic(lanes=4, workloads=[FAST_WORKLOADS[1]])
        assert result.data[0].traffic_ratio > 1.0

    def test_t3_area_band(self):
        result = t3_area()
        assert 0 < result.data.overhead_fraction < 0.10
        assert "TaskStream" in result.text
