"""Tests for the model sanitizer (repro.sim.sanitize).

Three layers:

- unit tests drive a bare :class:`Sanitizer` through each invariant in the
  catalog and assert the violation names the offending task/lane/cycle;
- injected-model-bug tests monkeypatch real simulator components into
  misbehaving and assert the sanitizer catches the class of bug it was
  built for;
- the differential matrix runs every evaluation workload on both machines
  with and without the sanitizer and asserts the result fingerprints are
  bit-identical — the sanitizer is purely observational.
"""

import dataclasses
import itertools

import pytest

from repro.arch.config import (
    FeatureFlags,
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta, _DeltaRun
from repro.core.dispatcher import Dispatcher
from repro.machine import Machine
from repro.sim.sanitize import (
    ModelInvariantError,
    NullSanitizer,
    Sanitizer,
    env_sanitize_requested,
)
from repro.sim.stats import UtilizationTracker
from repro.util.fingerprint import result_stats
from repro.workloads import get_workload
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import (
    ChainTasks,
    SharedReadTasks,
    UniformTasks,
)


class _StubTask:
    """Duck-typed task: the sanitizer needs only these four attributes."""

    _ids = itertools.count(1000)

    def __init__(self, name, after=(), stream_from=()):
        self.task_id = next(self._ids)
        self.name = name
        self.after = list(after)
        self.stream_from = list(stream_from)


class _StubMetrics:
    """Counter store stub for finish(): dotted get over a dict."""

    def __init__(self, **values):
        self.values = {k.replace("_", ".", 1): v for k, v in values.items()}

    def get(self, name):
        return self.values.get(name, 0.0)


def _lifecycle(san, task, lane=0, t0=0.0):
    """Drive one task through a clean submit/dispatch/start/complete."""
    san.task_submitted(task, t0)
    san.task_dispatched(task, lane, t0)
    san.task_started(task, lane, t0)
    san.task_completed(task, lane, t0 + 1)


def _clean_metrics(n=1):
    return _StubMetrics(dispatch_submitted=n, dispatch_dispatched=n,
                        dispatch_completed=n)


class TestInvariantCatalog:
    """Each invariant has a negative test naming it precisely."""

    def _expect(self, invariant, fn, *args, **kwargs):
        with pytest.raises(ModelInvariantError) as excinfo:
            fn(*args, **kwargs)
        err = excinfo.value
        assert err.invariant == invariant
        assert f"[{invariant}]" in str(err)
        return err

    # -- cycle-monotonicity ------------------------------------------------

    def test_clock_moving_backwards(self):
        san = Sanitizer()
        err = self._expect("cycle-monotonicity",
                           san.clock_advanced, 100.0, 99.0)
        assert "backwards" in str(err)

    def test_clock_nonfinite(self):
        san = Sanitizer()
        self._expect("cycle-monotonicity",
                     san.clock_advanced, 0.0, float("inf"))

    def test_event_before_last_observed_cycle(self):
        san = Sanitizer()
        san.task_submitted(_StubTask("late"), 50.0)
        err = self._expect("cycle-monotonicity",
                           san.task_submitted, _StubTask("early"), 10.0)
        assert err.cycle == 10.0

    def test_negative_event_timestamp(self):
        san = Sanitizer()
        self._expect("cycle-monotonicity",
                     san.task_submitted, _StubTask("t"), -1.0)

    # -- task-conservation -------------------------------------------------

    def test_double_submit(self):
        san = Sanitizer()
        task = _StubTask("dup")
        san.task_submitted(task, 0.0)
        err = self._expect("task-conservation",
                           san.task_submitted, task, 1.0)
        assert err.task == "dup" and "task=dup" in str(err)

    def test_dispatch_without_submit(self):
        san = Sanitizer()
        err = self._expect("task-conservation", san.task_dispatched,
                           _StubTask("ghost"), 3, 5.0)
        assert err.lane == 3 and err.cycle == 5.0

    def test_double_dispatch(self):
        san = Sanitizer()
        task = _StubTask("twice")
        san.task_submitted(task, 0.0)
        san.task_dispatched(task, 0, 1.0)
        self._expect("task-conservation",
                     san.task_dispatched, task, 1, 2.0)

    def test_steal_of_running_task(self):
        san = Sanitizer()
        task = _StubTask("running")
        san.task_submitted(task, 0.0)
        san.task_dispatched(task, 0, 1.0)
        san.task_started(task, 0, 2.0)
        self._expect("task-conservation",
                     san.task_stolen, task, 0, 1, 3.0)

    def test_complete_without_start(self):
        san = Sanitizer()
        task = _StubTask("phantom")
        san.task_submitted(task, 0.0)
        self._expect("task-conservation",
                     san.task_completed, task, 0, 1.0)

    def test_double_complete(self):
        san = Sanitizer()
        task = _StubTask("again")
        _lifecycle(san, task)
        self._expect("task-conservation",
                     san.task_completed, task, 0, 2.0)

    def test_unfinished_task_fails_finish(self):
        san = Sanitizer()
        task = _StubTask("lost")
        san.task_submitted(task, 0.0)
        san.task_dispatched(task, 0, 1.0)
        err = self._expect("task-conservation",
                           san.finish, _clean_metrics(), [])
        assert "never completed" in str(err)
        assert "dispatched" in str(err)  # its last observed state

    def test_counter_disagreement_fails_finish(self):
        san = Sanitizer()
        _lifecycle(san, _StubTask("ok"))
        metrics = _StubMetrics(dispatch_submitted=2,  # counter says 2
                               dispatch_dispatched=1,
                               dispatch_completed=1)
        err = self._expect("task-conservation", san.finish, metrics, [])
        assert "dispatch.submitted" in str(err)

    # -- dependence-legality -----------------------------------------------

    def test_start_before_after_producer_completed(self):
        san = Sanitizer()
        producer = _StubTask("producer")
        consumer = _StubTask("consumer", after=[producer])
        san.task_submitted(producer, 0.0)
        san.task_submitted(consumer, 0.0)
        san.task_dispatched(consumer, 1, 1.0)
        err = self._expect("dependence-legality",
                           san.task_started, consumer, 1, 2.0)
        assert "producer" in str(err) and err.task == "consumer"

    def test_stream_consumer_needs_started_producer(self):
        san = Sanitizer()
        producer = _StubTask("src")
        consumer = _StubTask("snk", stream_from=[producer])
        san.task_submitted(producer, 0.0)
        san.task_submitted(consumer, 0.0)
        san.task_dispatched(consumer, 0, 1.0)
        self._expect("dependence-legality",
                     san.task_started, consumer, 0, 2.0, pipelining=True)

    def test_stream_consumer_without_pipelining_needs_completion(self):
        san = Sanitizer()
        producer = _StubTask("src")
        consumer = _StubTask("snk", stream_from=[producer])
        for task in (producer, consumer):
            san.task_submitted(task, 0.0)
            san.task_dispatched(task, 0, 0.0)
        san.task_started(producer, 0, 1.0)
        # Started-but-not-completed producer is enough when pipelining...
        san.task_started(consumer, 1, 2.0, pipelining=True)
        # ...but a fresh sanitizer with pipelining off must reject it.
        san2 = Sanitizer()
        for task in (producer2 := _StubTask("src2"),
                     consumer2 := _StubTask("snk2",
                                            stream_from=[producer2])):
            san2.task_submitted(task, 0.0)
        san2.task_started(producer2, 0, 1.0)
        self._expect("dependence-legality", san2.task_started,
                     consumer2, 1, 2.0, pipelining=False)

    # -- lane-exclusivity --------------------------------------------------

    def test_double_acquire(self):
        san = Sanitizer()
        san.lane_acquired(2, _StubTask("first"), 0.0)
        err = self._expect("lane-exclusivity", san.lane_acquired,
                           2, _StubTask("second"), 1.0)
        assert err.lane == 2 and "first" in str(err)

    def test_release_by_non_occupant(self):
        san = Sanitizer()
        san.lane_acquired(0, _StubTask("owner"), 0.0)
        self._expect("lane-exclusivity", san.lane_released,
                     0, _StubTask("interloper"), 1.0)

    def test_unreleased_lane_fails_finish(self):
        san = Sanitizer()
        san.lane_acquired(1, _StubTask("stuck"), 0.0)
        err = self._expect("lane-exclusivity",
                           san.finish, _StubMetrics(), [])
        assert "still occupied" in str(err) and err.lane == 1

    # -- queue-bound -------------------------------------------------------

    def test_queue_over_depth(self):
        san = Sanitizer()
        task = _StubTask("overflow")
        san.task_submitted(task, 0.0)
        err = self._expect("queue-bound", san.task_dispatched,
                           task, 0, 1.0, queue_level=17, queue_depth=16)
        assert "17" in str(err) and "16" in str(err)

    # -- stream-legality ---------------------------------------------------

    def test_consume_ahead_of_producer(self):
        san = Sanitizer()
        san.stream_produced(1, 2, 256.0, 0.0)
        err = self._expect("stream-legality", san.stream_consumed,
                           1, 2, 512.0, 1.0)
        assert "512" in str(err) and "256" in str(err)

    def test_undrained_channel_fails_finish(self):
        san = Sanitizer()
        san.stream_produced(1, 2, 1024.0, 0.0)
        san.stream_consumed(1, 2, 512.0, 1.0)
        self._expect("stream-legality",
                     san.finish, _StubMetrics(), [])

    # -- work-accounting ---------------------------------------------------

    def test_busy_vs_expected_mismatch(self):
        san = Sanitizer()
        san.lane_busy(0, 100.0, 5.0)
        san.compute_expected(0, _StubTask("t"), 80.0)
        err = self._expect("work-accounting",
                           san.finish, _StubMetrics(), [100.0])
        assert err.lane == 0
        assert "100" in str(err) and "80" in str(err)

    def test_tracker_disagreement(self):
        san = Sanitizer()
        san.lane_busy(0, 100.0, 5.0)
        san.compute_expected(0, _StubTask("t"), 100.0)
        err = self._expect("work-accounting",
                           san.finish, _StubMetrics(), [125.0])
        assert "tracker" in str(err)

    def test_negative_busy_rejected(self):
        san = Sanitizer()
        self._expect("work-accounting", san.lane_busy, 0, -5.0, 1.0)

    # -- multicast-consistency ---------------------------------------------

    def test_unknown_request_outcome(self):
        san = Sanitizer()
        err = self._expect("multicast-consistency", san.shared_request,
                           "table", 1024.0, 0, "stolen", 0.0)
        assert "table" in str(err) and "stolen" in str(err)

    def test_serve_to_no_lane(self):
        san = Sanitizer()
        self._expect("multicast-consistency", san.multicast_served,
                     "table", 1024.0, 0, 0.0)

    def test_unserved_batch_fails_finish(self):
        san = Sanitizer()
        san.shared_request("r", 512.0, 0, "fetch", 0.0)
        # One batch opened but never served: both the byte balance and
        # the serve count are broken.
        self._expect("multicast-consistency",
                     san.finish, _StubMetrics(mcast_fetches=1), [])

    # -- noc-accounting ----------------------------------------------------

    def test_noc_counter_disagreement(self):
        san = Sanitizer()
        san.noc_message("unicast", 64.0, 0.0)
        err = self._expect("noc-accounting", san.finish,
                           _StubMetrics(noc_messages=2), [])
        assert "noc.messages" in str(err)

    def test_invalid_payload(self):
        san = Sanitizer()
        self._expect("noc-accounting",
                     san.noc_message, "unicast", float("nan"), 0.0)


class TestDiagnostics:
    def test_error_carries_window_and_context(self):
        san = Sanitizer()
        for i in range(3):
            _lifecycle(san, _StubTask(f"warmup{i}"), lane=i, t0=float(i))
        task = _StubTask("offender")
        san.task_submitted(task, 10.0)
        with pytest.raises(ModelInvariantError) as excinfo:
            san.task_submitted(task, 11.0)
        err = excinfo.value
        assert err.task == "offender"
        assert err.cycle == 11.0
        assert err.window, "violation must carry the recent-event window"
        text = str(err)
        assert "recent events:" in text
        assert "warmup2" in text  # the window shows what led up to it

    def test_window_is_bounded(self):
        san = Sanitizer()
        for i in range(Sanitizer.WINDOW * 3):
            san.task_submitted(_StubTask(f"t{i}"), float(i))
        assert len(san._window) == Sanitizer.WINDOW

    def test_pending_report_names_unfinished(self):
        san = Sanitizer()
        done, lost = _StubTask("done"), _StubTask("lost")
        _lifecycle(san, done)
        san.task_submitted(lost, 2.0)
        report = san.pending_report()
        assert "2 submitted" in report and "1 completed" in report
        assert "lost" in report and "done" not in report.split(":")[-1]

    def test_clean_run_passes_finish(self):
        san = Sanitizer()
        task = _StubTask("good")
        _lifecycle(san, task)
        san.lane_acquired(0, task2 := _StubTask("good2"), 2.0)
        san.lane_released(0, task2, 3.0)
        san.lane_busy(0, 40.0, 3.0)
        san.compute_expected(0, task, 40.0)
        san.stream_produced(1, 2, 128.0, 3.0)
        san.stream_consumed(1, 2, 128.0, 3.0)
        san.noc_message("unicast", 64.0, 3.0)
        metrics = _StubMetrics(dispatch_submitted=1, dispatch_dispatched=1,
                               dispatch_completed=2, noc_messages=1)
        # (counter stub: completed counts the _lifecycle complete + none)
        metrics.values["dispatch.completed"] = 1
        san.finish(metrics, [40.0])  # does not raise
        assert san.checks > 0


class TestNullSanitizer:
    def test_all_hooks_are_noops(self):
        san = NullSanitizer()
        task = _StubTask("ignored")
        san.clock_advanced(10.0, 0.0)       # would violate if enabled
        san.task_dispatched(task, 0, 0.0)   # dispatch without submit
        san.task_completed(task, 0, 0.0)    # complete without start
        san.lane_acquired(0, task, 0.0)
        san.lane_acquired(0, task, 0.0)     # double acquire
        san.lane_busy(0, -1.0, 0.0)         # negative busy
        san.stream_consumed(1, 2, 99.0, 0.0)
        san.noc_message("unicast", float("nan"), 0.0)
        san.finish(_StubMetrics(), [])
        assert san.checks == 0
        assert not san.enabled


class TestEnablement:
    def test_env_var_spellings(self, monkeypatch):
        for value, expected in (("1", True), ("true", True), ("YES", True),
                                ("on", True), ("0", False), ("", False),
                                ("off", False)):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert env_sanitize_requested() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert env_sanitize_requested() is False

    def test_machine_build_defaults_to_null(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        machine = Machine.build(default_delta_config(lanes=2))
        assert not machine.sanitizer.enabled

    def test_config_flag_enables(self):
        config = default_delta_config(lanes=2).with_sanitize(True)
        machine = Machine.build(config)
        assert machine.sanitizer.enabled
        assert machine.env.clock_monitor is not None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine = Machine.build(default_delta_config(lanes=2))
        assert machine.sanitizer.enabled

    def test_sanitize_excluded_from_result_fingerprint(self):
        # `sanitize` must be a pure observation flag: flipping it cannot
        # reach the stats tuple (checked exhaustively by the matrix below;
        # this guards the config field itself).
        config = default_delta_config(lanes=2)
        assert config.with_sanitize(True).lanes == config.lanes
        assert config.with_sanitize(True).sanitize is True
        assert config.sanitize is False  # with_sanitize copies


@pytest.fixture
def captured_sanitizer(monkeypatch):
    """Capture the sanitizer of the next machine Delta/Static builds."""
    box = {}
    original = Machine.build

    def spy(config, **kwargs):
        machine = original(config, **kwargs)
        box["sanitizer"] = machine.sanitizer
        return machine

    monkeypatch.setattr(Machine, "build", staticmethod(spy))
    return box


class TestSanitizedRuns:
    """Positive path: real runs under the sanitizer stay clean."""

    def test_delta_run_is_observed(self, captured_sanitizer):
        w = SharedReadTasks(num_tasks=8)
        result = Delta(default_delta_config(lanes=4).with_sanitize(True)
                       ).run(w.build_program())
        w.check(result.state)
        san = captured_sanitizer["sanitizer"]
        assert san.enabled and san.checks > 100
        assert san._finished  # finish() ran at result assembly

    def test_static_run_is_observed(self, captured_sanitizer):
        w = UniformTasks(num_tasks=8)
        StaticParallel(default_baseline_config(lanes=2).with_sanitize(True)
                       ).run(w.build_program())
        san = captured_sanitizer["sanitizer"]
        assert san.enabled and san.checks > 0 and san._finished

    def test_pipelined_chain_clean(self):
        # Exercises stream-legality on a real producer/consumer pipeline.
        w = ChainTasks(depth=4, trips=2048)
        result = Delta(default_delta_config(lanes=4).with_sanitize(True)
                       ).run(w.build_program())
        w.check(result.state)

    def test_pipelining_disabled_clean(self):
        w = ChainTasks(depth=4, trips=512)
        config = default_delta_config(
            lanes=2, features=FeatureFlags(pipelining=False)
        ).with_sanitize(True)
        result = Delta(config).run(w.build_program())
        w.check(result.state)

    def test_steal_policy_clean(self):
        config = default_delta_config(lanes=4).with_policy(
            "steal").with_sanitize(True)
        w = get_workload("micro-skewed")
        result = Delta(config).run(w.build_program())
        w.check(result.state)

    def test_env_var_sanitizes_run(self, monkeypatch, captured_sanitizer):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        Delta(default_delta_config(lanes=2)).run(
            UniformTasks(num_tasks=4).build_program())
        assert captured_sanitizer["sanitizer"].enabled


class TestDifferentialMatrix:
    """Every workload, both runtimes, both lane counts, both event
    engines: the sanitized run must find nothing and change nothing.

    The matrix closes the loop between the sanitizer's invariants and the
    fast event kernel (tests/test_engine_equivalence.py): for each point,
    sanitized-fast == sanitized-reference == unsanitized-reference,
    bit-identically. A fast-kernel shortcut that broke an invariant — or
    dodged the sanitizer's observation hooks — diverges here.
    """

    @pytest.mark.parametrize("lanes", [2, 8])
    @pytest.mark.parametrize("name", workload_names())
    def test_sanitized_fingerprint_identical(self, name, lanes, monkeypatch):
        from repro.eval.runner import compare

        workload = get_workload(name)
        config = default_delta_config(lanes=lanes)

        monkeypatch.setenv("REPRO_ENGINE", "reference")
        plain = compare(workload, config)
        sanitized_ref = compare(workload, config.with_sanitize(True))
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        sanitized_fast = compare(workload, config.with_sanitize(True))

        for side in ("delta", "static"):
            baseline = result_stats(getattr(plain, side))
            assert result_stats(getattr(sanitized_ref, side)) == baseline, \
                f"{name}@lanes={lanes} [{side}]: sanitizer perturbed the " \
                "reference engine"
            assert result_stats(getattr(sanitized_fast, side)) == baseline, \
                f"{name}@lanes={lanes} [{side}]: sanitized fast engine " \
                "diverged from unsanitized reference"


class TestInjectedModelBugs:
    """Break real components on purpose; the sanitizer must notice."""

    def _config(self, lanes=2):
        return default_delta_config(lanes=lanes).with_sanitize(True)

    def test_double_completion_caught(self, monkeypatch):
        original = Dispatcher.task_completed

        def completes_twice(self, task):
            original(self, task)
            original(self, task)

        monkeypatch.setattr(Dispatcher, "task_completed", completes_twice)
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(self._config()).run(
                UniformTasks(num_tasks=4).build_program())
        assert excinfo.value.invariant == "task-conservation"
        assert "more than once" in str(excinfo.value)

    def test_phantom_stream_chunk_caught(self, monkeypatch):
        original = _DeltaRun._channel

        def leaky_channel(self, producer, consumer):
            channel = original(self, producer, consumer)
            if not channel.store._items:  # seed one chunk nobody produced
                channel.store._items.appendleft(256.0)
            return channel

        monkeypatch.setattr(_DeltaRun, "_channel", leaky_channel)
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(self._config(lanes=4)).run(
                ChainTasks(depth=3, trips=1024).build_program())
        assert excinfo.value.invariant == "stream-legality"

    def test_utilization_tracker_drift_caught(self, monkeypatch):
        original = UtilizationTracker.busy

        def drifting_busy(self, duration):
            original(self, duration * 1.25)  # silently inflate

        monkeypatch.setattr(UtilizationTracker, "busy", drifting_busy)
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(self._config()).run(
                UniformTasks(num_tasks=4).build_program())
        err = excinfo.value
        assert err.invariant == "work-accounting"
        assert err.lane is not None

    def test_queue_overflow_caught(self, monkeypatch):
        import repro.core.dispatcher as dispatcher_mod
        from repro.sim import Store

        class DeepStore(Store):
            """A dispatch queue that ignores its architected depth."""

            def __init__(self, env, capacity, name=None):
                if name and name.startswith("dispatch.q"):
                    capacity *= 8
                super().__init__(env, capacity, name=name)

        monkeypatch.setattr(dispatcher_mod, "Store", DeepStore)
        # Round-robin places eagerly (no low-water throttle), so the
        # mis-sized queue actually fills past its architected depth.
        config = self._config(lanes=1).with_policy("round-robin")
        config = dataclasses.replace(
            config, dispatch=dataclasses.replace(config.dispatch,
                                                 queue_depth=2))
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(config).run(
                UniformTasks(num_tasks=12, trips=2048).build_program())
        err = excinfo.value
        assert err.invariant == "queue-bound"
        assert err.lane == 0


class TestCli:
    def test_run_with_sanitize(self, capsys):
        from repro.cli import main

        assert main(["run", "micro-uniform", "--lanes", "2",
                     "--sanitize"]) == 0
        assert "functional check: OK" in capsys.readouterr().out

    def test_compare_with_sanitize(self, capsys):
        from repro.cli import main

        assert main(["compare", "micro-uniform", "--lanes", "2",
                     "--sanitize"]) == 0
        assert "speedup" in capsys.readouterr().out
