"""Unit tests for the machine layer (repro.machine).

Machine.build composes the shared datapath; RunSession owns the run
lifecycle (progress accounting, stall detection, canonical result
assembly); every component of a machine adds to its one counter bag.
"""

import dataclasses
import pickle

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.arch.energy import estimate_energy
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.machine import (ExecutionStalled, Machine, RunRecord, RunResult,
                           RunSession)
from repro.sim.trace import NullTracer, Tracer
from repro.util.counters import Counters
from repro.util.fingerprint import result_stats
from repro.workloads.synthetic import SharedReadTasks


class TestMachineBuild:
    def test_composes_one_lane_per_config_lane(self):
        machine = Machine.build(default_delta_config(lanes=4))
        assert len(machine.lanes) == 4
        assert [lane.lane_id for lane in machine.lanes] == [0, 1, 2, 3]

    def test_components_share_env_and_metrics(self):
        machine = Machine.build(default_delta_config(lanes=2))
        assert machine.noc.env is machine.env
        assert machine.dram.env is machine.env
        assert all(lane.env is machine.env for lane in machine.lanes)
        assert isinstance(machine.counters, Counters)
        assert machine.noc.counters is machine.counters
        assert machine.dram.counters is machine.counters

    def test_multicast_follows_config_by_default(self):
        config = default_delta_config(lanes=2)
        machine = Machine.build(config)
        assert machine.noc.multicast_enabled == config.noc.multicast

    def test_multicast_override_for_static_datapath(self):
        config = default_delta_config(lanes=2)
        assert config.noc.multicast  # the override must actually override
        machine = Machine.build(config, multicast_enabled=False)
        assert machine.noc.multicast_enabled is False

    def test_default_tracer_is_disabled_null_tracer(self):
        machine = Machine.build(default_baseline_config(lanes=2))
        assert isinstance(machine.tracer, NullTracer)
        assert not machine.tracer.enabled

    def test_lane_busy_vector_in_lane_order(self):
        machine = Machine.build(default_delta_config(lanes=3))
        assert machine.lane_busy == [0.0, 0.0, 0.0]
        machine.lanes[1].tracker.busy(42.0)
        assert machine.lane_busy == [0.0, 42.0, 0.0]


class TestRunSession:
    def make_session(self, **build_kwargs):
        machine = Machine.build(default_delta_config(lanes=2),
                                **build_kwargs)
        return RunSession(machine, machine_name="delta",
                          program_name="prog", state={"k": "v"})

    def test_task_completed_accounts_progress(self):
        session = self.make_session()
        env = session.machine.env

        def ticker():
            yield env.timeout(7)
            session.task_completed()
            yield env.timeout(5)
            session.task_completed()

        env.process(ticker())
        env.run()
        assert session.tasks_executed == 2
        assert session.last_completion == 12.0

    def test_run_until_complete_ok_when_finished(self):
        session = self.make_session()
        env = session.machine.env

        def finish():
            yield env.timeout(1)

        env.process(finish())
        session.run_until_complete(max_cycles=None, finished=lambda: True)
        assert env.now == 1.0

    def test_stall_raises_with_diagnostics(self):
        session = self.make_session()
        env = session.machine.env

        def stuck():
            yield env.timeout(100)

        env.process(stuck())
        with pytest.raises(ExecutionStalled, match="did not finish"):
            session.run_until_complete(
                max_cycles=None, finished=lambda: False,
                stall_detail=lambda: "with 3 tasks outstanding")
        with pytest.raises(ExecutionStalled, match="tasks outstanding"):
            session.run_until_complete(
                max_cycles=None, finished=lambda: False,
                stall_detail=lambda: "with 3 tasks outstanding")

    def test_result_defaults_to_last_completion_cycles(self):
        session = self.make_session()
        env = session.machine.env

        def ticker():
            yield env.timeout(9)
            session.task_completed()
            yield env.timeout(100)  # drain past the last completion

        env.process(ticker())
        env.run()
        result = session.result()
        assert isinstance(result, RunResult)
        assert result.cycles == 9.0
        assert result.tasks_executed == 1
        assert result.machine == "delta"
        assert result.program_name == "prog"
        assert result.state == {"k": "v"}
        assert result.counters is session.machine.counters
        assert result.trace is None  # NullTracer is not reported

    def test_result_explicit_cycles_for_barrier_models(self):
        session = self.make_session()
        result = session.result(cycles=123.0)
        assert result.cycles == 123.0

    def test_result_carries_enabled_tracer(self):
        session = self.make_session(tracer=Tracer(enabled=True))
        result = session.result(cycles=1.0)
        assert result.trace is session.machine.tracer


class TestMetricsBus:
    """A machine's one counter bag: every component adds to it by full
    dotted name, and a run's result reads it back."""

    def make_machine(self):
        return Machine.build(default_delta_config(lanes=2))

    def test_undeclared_reads_default_to_zero(self):
        counters = self.make_machine().counters
        assert counters.get("noc.bytes") == 0.0
        assert counters.get("mcast.nonexistent") == 0.0
        assert "noc.bytes" not in counters

    def test_dram_total_and_group_total(self):
        machine = self.make_machine()
        machine.counters.add("dram.read_bytes", 100)
        machine.counters.add("dram.write_bytes", 20)
        record = RunRecord("delta", "p", 1.0, 0, (0.0, 0.0),
                           machine.counters.snapshot())
        assert record.dram_bytes == 120
        assert machine.counters.render(prefix="dram.").splitlines() == [
            "dram.read_bytes   100.0", "dram.write_bytes  20.0"]

    def test_set_max_through_group(self):
        counters = self.make_machine().counters
        counters.set_max("dispatch.cycles", 5)
        counters.set_max("dispatch.cycles", 3)
        assert counters.get("dispatch.cycles") == 5

    def test_snapshot_matches_sorted_items(self):
        counters = self.make_machine().counters
        counters.add("noc.bytes", 1)
        counters.add("dram.read_bytes", 2)
        assert counters.snapshot() == (("dram.read_bytes", 2.0),
                                       ("noc.bytes", 1.0))
        assert tuple(counters.items()) == counters.snapshot()

    def test_from_snapshot_round_trips(self):
        counters = self.make_machine().counters
        counters.add("noc.bytes", 1)
        counters.add("dram.read_bytes", 2)
        rebuilt = Counters.from_snapshot(counters.snapshot())
        assert rebuilt.snapshot() == counters.snapshot()
        assert rebuilt.get("dram.read_bytes") == 2
        rebuilt.add("noc.bytes", 1)
        assert counters.get("noc.bytes") == 1  # a copy, not a view


class TestRunResultMetrics:
    def make_result(self, counters):
        return RunResult(machine="delta", program_name="p",
                         config=default_delta_config(lanes=2),
                         cycles=10.0, tasks_executed=1,
                         counters=counters, lane_busy=[5.0, 5.0],
                         state=None)

    def test_metrics_view_over_plain_counters(self):
        plain = Counters()
        plain.add("dram.read_bytes", 30)
        plain.add("dram.write_bytes", 12)
        plain.add("noc.bytes", 8)
        result = self.make_result(plain)
        assert result.dram_bytes == 42
        assert result.noc_bytes == 8


@pytest.fixture(params=["delta", "static"])
def live(request):
    """A live result of one direct run on either machine."""
    program = SharedReadTasks(num_tasks=12).build_program()
    if request.param == "delta":
        return Delta(default_delta_config(lanes=4)).run(program)
    return StaticParallel(default_baseline_config(lanes=4)).run(program)


class TestRunRecord:
    def test_record_reads_like_its_live_run(self, live):
        record = live.record()
        assert result_stats(record) == result_stats(live)
        assert estimate_energy(record) == estimate_energy(live)
        assert record.lanes == live.lanes == live.config.lanes
        assert record.imbalance_cv == live.imbalance_cv
        assert record.mean_lane_utilization == live.mean_lane_utilization
        assert record.counters.snapshot() == live.counters.snapshot()
        assert record.summary() == live.summary()

    def test_record_is_frozen_pure_data(self, live):
        record = live.record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cycles = 0.0
        assert pickle.loads(pickle.dumps(record)) == record
        assert {f.name for f in dataclasses.fields(record)} == {
            "machine", "program_name", "cycles", "tasks_executed",
            "lane_busy", "counter_snapshot"}
