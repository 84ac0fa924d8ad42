"""Tests for the parallel executor and the on-disk result cache.

The contract under test (see docs/evaluation.md):

- the parallel path returns *field-identical* results to the serial path;
- a warm cache serves every point without running a single simulation;
- a corrupted cache entry, or one whose critical-path bound was altered,
  is dropped and recomputed, never served;
- the pool dispatches longest-first by measured cost, yet delivers
  results in input order;
- one warm worker pool serves every batch of the process, concurrent
  batches included, and is replaced only when broken or stuck.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.eval import parallel as parallel_mod
from repro.eval.cache import CACHE_FORMAT, EvalCache, workload_cache_key
from repro.eval.parallel import (
    dispatch_order,
    resolve_jobs,
    run_points,
    run_suite_parallel,
)
from repro.eval.runner import run_suite, simulation_count
from repro.machine.metrics import MetricsBus
from repro.util.fingerprint import comparison_fingerprint, result_stats
from repro.workloads import all_workloads
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

LANES = 4


@pytest.fixture(autouse=True)
def fresh_point_costs(monkeypatch):
    """Every test starts with an empty cost table, so dispatch order never
    depends on which tests ran before."""
    monkeypatch.setattr(parallel_mod, "_point_costs", {})


def reverse_dispatch(workloads):
    """Seed the cost table so the pool dispatches ``workloads`` last first."""
    for rank, workload in enumerate(workloads):
        key = (type(workload).__qualname__, workload.name)
        parallel_mod._point_costs[key] = float(rank + 1)


def fast_workloads():
    """Fresh instances each call — kernels mutate workload programs."""
    return [SkewedTasks(num_tasks=24), SharedReadTasks(num_tasks=12)]


def assert_field_identical(left, right):
    """Every field an experiment reads must match bit-for-bit."""
    assert [c.workload for c in left] == [c.workload for c in right]
    for a, b in zip(left, right):
        assert result_stats(a.delta) == result_stats(b.delta)
        assert result_stats(a.static) == result_stats(b.static)
        assert a.speedup == b.speedup
        assert a.traffic_ratio == b.traffic_ratio
        assert a.parallelism == b.parallelism
        assert comparison_fingerprint(a) == comparison_fingerprint(b)


class TestParallelExecutor:
    def test_parallel_equals_serial_field_for_field(self):
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        parallel = run_suite_parallel(lanes=LANES,
                                      workloads=fast_workloads(), jobs=4)
        assert_field_identical(serial, parallel)

    def test_run_suite_delegates_jobs(self):
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        parallel = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=2)
        assert_field_identical(serial, parallel)

    def test_generous_timeout_completes_normally(self):
        # A budget no real point hits: the timed path must still be
        # field-identical to the serial path.
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        timed = run_suite_parallel(lanes=LANES,
                                   workloads=fast_workloads(), jobs=2,
                                   timeout=600.0)
        assert_field_identical(serial, timed)

    def test_timeout_bounds_the_serial_recompute_too(self):
        # A microscopic per-point budget times out in the pool AND in the
        # bounded serial recompute: the point is genuinely over budget, so
        # the suite raises instead of hanging on an unbounded fallback.
        from repro.eval.parallel import PointTimeoutError

        with pytest.raises(PointTimeoutError, match="budget"):
            run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                               jobs=2, timeout=1e-9)

    def test_unpicklable_workload_falls_back_to_serial(self):
        workloads = fast_workloads()
        # A lambda attribute defeats pickling, so the pool path cannot
        # ship this workload; the batch must fall back to serial, and the
        # outcomes must say so — distinctly from a timeout recovery.
        workloads[0].unpicklable = lambda: None
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        outcomes: list = []
        fallback = run_suite_parallel(lanes=LANES, workloads=workloads,
                                      jobs=2, outcomes=outcomes)
        assert_field_identical(serial, fallback)
        assert len(outcomes) == len(workloads)
        assert "recovered" in outcomes
        assert "recovered-after-timeout" not in outcomes

    def test_resolve_jobs_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(1) == 1
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs(None) == 1


def _sleeping_compare(spec):
    """Stand-in point that outlives every budget (module-level so the
    fork-started pool workers resolve it by reference)."""
    time.sleep(30)


class TestCancellation:
    """Cooperative cancellation: points resolve to outcome ``"cancelled"``
    with result ``None`` — never an exception, whatever state the point
    was in (queued, in the pool, or mid serial-recompute)."""

    def test_pre_cancelled_sweep_computes_nothing(self):
        from repro.eval.runner import simulation_count

        cancel = threading.Event()
        cancel.set()
        before = simulation_count()
        outcomes: list = []
        results = run_suite_parallel(lanes=LANES,
                                     workloads=fast_workloads(), jobs=1,
                                     outcomes=outcomes, cancel=cancel)
        assert results == [None, None]
        assert outcomes == ["cancelled", "cancelled"]
        assert simulation_count() == before

    @staticmethod
    def cancel_mid_sweep(reversed_dispatch: bool) -> list:
        # The first settled point fires the cancel: everything after it
        # must resolve as cancelled, everything before it stays computed.
        cancel = threading.Event()
        outcomes: list = []
        settled: list = []

        def on_result(index, comparison, outcome):
            settled.append((index, outcome))
            cancel.set()

        workloads = fast_workloads() + [SpmvWorkload()]
        if reversed_dispatch:
            reverse_dispatch(workloads)
        results = run_suite_parallel(lanes=LANES, workloads=workloads,
                                     jobs=2, outcomes=outcomes,
                                     cancel=cancel, on_result=on_result)
        assert "cancelled" in outcomes
        assert len(settled) == len(workloads)
        for comparison, outcome in zip(results, outcomes):
            if outcome == "cancelled":
                assert comparison is None
            else:
                assert comparison is not None
        return outcomes

    def test_cancel_mid_sweep_marks_remaining_points_cancelled(self):
        self.cancel_mid_sweep(reversed_dispatch=False)

    def test_cancel_mid_sweep_with_reversed_dispatch(self):
        # Index 0 is dispatched last, so the later points are computed
        # and held when its delivery fires the cancel: held results
        # settle as cancelled too, never as delivered.
        outcomes = self.cancel_mid_sweep(reversed_dispatch=True)
        assert outcomes == ["ok", "cancelled", "cancelled"]

    def test_cancelled_timeout_recovery_reports_cancelled(self, monkeypatch):
        # Regression: a point that times out in the pool AND whose serial
        # recompute is then cancelled must settle as "cancelled" — not
        # raise PointTimeoutError or a pool-teardown error at the caller.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork workers to inherit the patched point")
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            _sleeping_compare)
        cancel = threading.Event()
        timer = threading.Timer(0.45, cancel.set)
        timer.start()
        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        points = [(workload, delta, static, True)
                  for workload in fast_workloads()]
        outcomes: list = []
        try:
            results = run_points(points, jobs=2, timeout=0.3,
                                 outcomes=outcomes, cancel=cancel)
        finally:
            timer.cancel()
        assert results == [None, None]
        assert outcomes == ["cancelled", "cancelled"]

    def test_cancelled_pool_failure_reports_cancelled(self):
        # The other half of the regression: when the bounded recompute's
        # pool machinery fails *while the cancel event is set*,
        # cancellation must win over the secondary error.
        from repro.eval.parallel import _Cancelled, _recover_point

        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        spec = (SkewedTasks(num_tasks=24), delta, static, True)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(_Cancelled):
            _recover_point(spec, timeout=600.0, cancel=cancel)


class Named:
    """Stand-in workload: the dispatch order reads only class and name."""

    def __init__(self, name: str) -> None:
        self.name = name


class TestDispatchOrder:
    """Longest-first dispatch by the last measured cost of each workload,
    delivered in input order."""

    def test_untimed_points_keep_input_order(self):
        points = [(Named(name), None, None, True) for name in "abc"]
        assert dispatch_order(points) == [0, 1, 2]

    def test_untimed_first_then_longest_first_ties_in_input_order(self):
        points = [(Named(name), None, None, True) for name in "abcdef"]
        for name, cost in {"a": 1.0, "c": 3.0, "d": 1.0, "f": 2.0}.items():
            parallel_mod._point_costs[("Named", name)] = cost
        # b and e were never timed; then c (3.0), f (2.0), a and d (1.0).
        assert dispatch_order(points) == [1, 4, 2, 5, 0, 3]

    def test_reversed_dispatch_equals_serial_and_delivers_in_order(self):
        serial = run_suite(lanes=LANES, workloads=all_workloads(), jobs=1)
        workloads = all_workloads()
        reverse_dispatch(workloads)
        points = [(w, None, None, True) for w in workloads]
        assert dispatch_order(points) == list(reversed(range(len(points))))
        delivered: list = []
        parallel = run_suite_parallel(
            lanes=LANES, workloads=workloads, jobs=2,
            on_result=lambda index, *_: delivered.append(index))
        assert_field_identical(serial, parallel)
        assert delivered == list(range(len(workloads)))

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_batch_times_one_entry_per_workload(self, jobs):
        # Two points of one (class, name) with different arguments share
        # one entry: the estimate ranks workloads, not configurations.
        workloads = fast_workloads() + [SkewedTasks(num_tasks=12)]
        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        points = [(w, delta, static, True) for w in workloads]
        assert None not in run_points(points, jobs=jobs)
        costs = parallel_mod._point_costs
        assert set(costs) == {("SkewedTasks", "skewed"),
                              ("SharedReadTasks", "shared-read")}
        assert all(seconds > 0 for seconds in costs.values())

    def test_concurrent_batches_share_the_table(self, monkeypatch):
        # repro serve runs jobs on several threads against the one
        # process-wide table: concurrent timing and ordering must neither
        # raise nor leave more than one entry per workload.
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            lambda spec: spec[0].name)
        names = [f"w{i}" for i in range(8)]
        points = [(Named(name), None, None, True) for name in names]
        errors: list = []

        def batches():
            try:
                for _ in range(200):
                    assert run_points(points, jobs=1) == names
                    assert sorted(dispatch_order(points)) == \
                        list(range(len(points)))
            except Exception as exc:  # reported below, not lost in a thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=batches) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert set(parallel_mod._point_costs) == \
            {("Named", name) for name in names}


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers must inherit the patched point function")


def named_points(names):
    return [(Named(name), None, None, True) for name in names]


def pid_after(seconds):
    """Stand-in point function: sleep, then name the process that ran it."""
    def point(spec):
        time.sleep(seconds)
        return os.getpid()
    return point


def run_threads(*targets, timeout=120):
    """Run each target on its own thread; fail if any is still running."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


class BreaksOnceStarted(ProcessPoolExecutor):
    """A pool whose workers start, then one dies: every submission after
    the one that started them meets a broken pool."""

    started = False

    def submit(self, fn, /, *args, **kwargs):
        if not self.started:
            self.started = True
            return super().submit(fn, *args, **kwargs)
        self._broken = "a child process terminated abruptly"
        return self.submit_to_broken_pool()


class LosesItsFuture(BreaksOnceStarted):
    """The submission raced the worker death and landed after the pool
    failed its pending futures, so nothing will ever resolve it."""

    def submit_to_broken_pool(self):
        return Future()


class RefusesSubmit(BreaksOnceStarted):
    """The pool broke before the submission reached it."""

    def submit_to_broken_pool(self):
        raise BrokenProcessPool(self._broken)


@needs_fork
class TestSharedPool:
    """One warm pool per process: reused across batches and threads,
    replaced only when it breaks or a worker is stuck."""

    def test_consecutive_batches_reuse_the_workers(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_compare_point", pid_after(0.3))
        points = named_points("abcd")
        first = set(run_points(points, jobs=2))
        second = set(run_points(points, jobs=2))
        assert len(first) == 2 and os.getpid() not in first
        assert second == first

    def test_one_point_batch_runs_in_a_worker(self):
        serial = run_suite(lanes=LANES, workloads=[SkewedTasks(num_tasks=24)],
                           jobs=1)
        before = simulation_count()
        pooled = run_suite_parallel(lanes=LANES,
                                    workloads=[SkewedTasks(num_tasks=24)],
                                    jobs=2)
        assert simulation_count() == before, "the point ran in this process"
        assert_field_identical(serial, pooled)

    def test_concurrent_batches_equal_serial(self):
        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        suites = [lambda: fast_workloads() + [SpmvWorkload()],
                  lambda: [SkewedTasks(num_tasks=12),
                           SharedReadTasks(num_tasks=24)]]

        def specs(suite):
            return [(w, delta, static, True) for w in suite()]

        serial = [run_points(specs(suite), jobs=1) for suite in suites]
        results: dict = {}
        delivered: dict = {0: [], 1: []}

        def batch(k):
            results[k] = run_points(
                specs(suites[k]), jobs=2,
                on_point=lambda index, *_: delivered[k].append(index))

        run_threads(lambda: batch(0), lambda: batch(1))
        for k, expected in enumerate(serial):
            assert [comparison_fingerprint(c) for c in results[k]] == \
                [comparison_fingerprint(c) for c in expected]
            assert delivered[k] == list(range(len(expected)))

    def test_timeout_retires_the_pool_not_a_concurrent_batch(
            self, monkeypatch, tmp_path):
        # A stuck point times out and retires the pool. A batch queued
        # there beside it still completes there; the next batch gets new
        # workers.
        stall = tmp_path / "stall-once"
        stall.write_text("armed")

        def point(spec):
            if spec[0].name == "stuck":
                try:
                    os.remove(stall)
                except FileNotFoundError:
                    pass  # the serial recompute: not stuck this time
                else:
                    time.sleep(5)
            else:
                time.sleep(0.4)
            return os.getpid()

        monkeypatch.setattr(parallel_mod, "_compare_point", point)
        stuck_outcomes: list = []
        stuck = threading.Thread(target=run_points, args=(
            named_points(["stuck"]), 2, 0.8, stuck_outcomes))
        stuck.start()
        deadline = time.monotonic() + 10
        while stall.exists():
            assert time.monotonic() < deadline, "the stuck point never ran"
            time.sleep(0.01)
        outcomes: list = []
        beside = run_points(named_points("abcd"), jobs=2, outcomes=outcomes)
        stuck.join(timeout=30)
        assert not stuck.is_alive()
        assert stuck_outcomes == ["recovered-after-timeout"]
        assert outcomes == ["ok"] * 4
        after = run_points(named_points("ef"), jobs=2)
        assert set(after).isdisjoint(beside)

    def test_one_death_under_two_batches_counts_once(self, monkeypatch,
                                                     tmp_path):
        kill = tmp_path / "kill-once"
        kill.write_text("armed")

        def point(spec):
            if multiprocessing.parent_process() is not None:
                try:
                    os.remove(kill)
                except FileNotFoundError:
                    pass  # another worker already spent the kill
                else:
                    time.sleep(0.5)  # both batches are queued by now
                    os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.3)
            return spec[0].name

        monkeypatch.setattr(parallel_mod, "_compare_point", point)
        bus = MetricsBus()
        start = threading.Barrier(2)
        results: dict = {}
        outcomes: dict = {"abc": [], "xyz": []}

        def batch(names):
            start.wait(timeout=30)
            results[names] = run_points(named_points(names), jobs=2,
                                        outcomes=outcomes[names],
                                        metrics=bus.eval)

        run_threads(lambda: batch("abc"), lambda: batch("xyz"))
        assert not kill.exists()
        assert bus.eval.get("worker_deaths") == 1
        assert bus.eval.get("pool_rebuilds") == 1
        for names in ("abc", "xyz"):
            assert results[names] == list(names)
            assert "retried" in outcomes[names]
            assert set(outcomes[names]) <= {"ok", "retried"}

    def test_pool_broken_between_batches_is_replaced_first(self,
                                                           monkeypatch):
        monkeypatch.setattr(parallel_mod, "_compare_point", pid_after(0.3))
        bus = MetricsBus()
        points = named_points("abcd")
        old = set(run_points(points, jobs=2, metrics=bus.eval))
        os.kill(min(old), signal.SIGKILL)
        # The pool sees the death and stops its other worker too.
        deadline = time.monotonic() + 30
        while old & {p.pid for p in multiprocessing.active_children()}:
            assert time.monotonic() < deadline, "the pool never broke"
            time.sleep(0.05)
        outcomes: list = []
        new = set(run_points(points, jobs=2, outcomes=outcomes,
                             metrics=bus.eval))
        assert outcomes == ["ok"] * 4
        assert new.isdisjoint(old)
        assert bus.eval.get("worker_deaths") == 1
        assert bus.eval.get("pool_rebuilds") == 1

    def test_workers_never_collect_the_parents_garbage(self, monkeypatch):
        # A worker that collected garbage the parent left would run its
        # finalizers there. A dead pool's wakeup callback is one: it takes
        # a lock another thread of the parent may have held at the fork,
        # and would wait on it forever.
        finalized: list = []

        class Finalizer:
            def __del__(self):
                finalized.append(os.getpid())

        def point(spec):
            gc.collect()
            return list(finalized)

        monkeypatch.setattr(parallel_mod, "_compare_point", point)
        gc.disable()
        try:
            garbage = [Finalizer()]
            garbage.append(garbage)
            del garbage
            assert run_points(named_points("ab"), jobs=2) == [[], []]
        finally:
            gc.enable()
            gc.collect()
        assert finalized == [os.getpid()]

    @pytest.mark.parametrize("broken_pool", [LosesItsFuture, RefusesSubmit])
    def test_point_lost_to_a_breaking_pool_is_retried(self, monkeypatch,
                                                      broken_pool):
        made: list = []

        def pools(*args, **kwargs):
            made.append((ProcessPoolExecutor if made else broken_pool)(
                *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", pools)
        serial = run_suite(lanes=LANES, workloads=[SkewedTasks(num_tasks=24)],
                           jobs=1)
        bus = MetricsBus()
        outcomes: list = []
        pooled: list = []
        run_threads(lambda: pooled.extend(run_suite_parallel(
            lanes=LANES, workloads=[SkewedTasks(num_tasks=24)], jobs=2,
            outcomes=outcomes, metrics=bus.eval)), timeout=60)
        assert outcomes == ["retried"]
        assert_field_identical(serial, pooled)
        assert bus.eval.get("worker_deaths") == 1
        assert bus.eval.get("pool_rebuilds") == 1

    def test_point_that_kills_every_worker_is_recomputed_here(
            self, monkeypatch):
        # The batch resubmits the point to a replaced pool once; when it
        # kills that pool's worker too, this process recomputes it.
        serial = run_suite(lanes=LANES, workloads=[SkewedTasks(num_tasks=24)],
                           jobs=1)
        compare_point = parallel_mod._compare_point

        def point(spec):
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            return compare_point(spec)

        monkeypatch.setattr(parallel_mod, "_compare_point", point)
        bus = MetricsBus()
        outcomes: list = []
        pooled = run_suite_parallel(
            lanes=LANES, workloads=[SkewedTasks(num_tasks=24)], jobs=2,
            outcomes=outcomes, metrics=bus.eval)
        assert outcomes == ["lost-worker"]
        assert_field_identical(serial, pooled)
        assert bus.eval.get("worker_deaths") == 2
        assert bus.eval.get("pool_rebuilds") == 1
        assert bus.eval.get("lost_worker_points") == 1


class TestEvalCache:
    def test_cache_hit_skips_simulation(self, tmp_path):
        cache = EvalCache(tmp_path)
        cold = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        assert cache.stores == len(cold)
        before = simulation_count()
        warm = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        assert simulation_count() == before, \
            "warm cache must not run any simulation"
        assert cache.hits == len(warm)
        assert_field_identical(cold, warm)

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        cache = EvalCache(tmp_path)
        cold = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        # Entries are sharded: <root>/eval/<digest prefix>/<key>.pkl.
        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        before = simulation_count()
        recomputed = run_suite_parallel(lanes=LANES,
                                        workloads=fast_workloads(),
                                        jobs=1, cache=cache)
        assert simulation_count() == before + len(recomputed), \
            "corrupted entries must be recomputed"
        assert_field_identical(cold, recomputed)

    def test_altered_bound_fails_the_entry_check(self, tmp_path):
        cache = EvalCache(tmp_path)
        workload = SkewedTasks(num_tasks=24)
        key = cache.key_for(workload, default_delta_config(lanes=LANES),
                            default_baseline_config(lanes=LANES))
        (cold,) = run_suite_parallel(lanes=LANES, workloads=[workload],
                                     jobs=1, cache=cache)
        # The stats still match their fingerprint; only the carried bound
        # changed, and that alone must discard the entry.
        path = cache._path(key)
        entry = pickle.loads(path.read_bytes())
        entry["comparison"].parallelism += 1.0
        path.write_bytes(pickle.dumps(entry))
        before = simulation_count()
        (fresh,) = run_suite_parallel(lanes=LANES,
                                      workloads=[SkewedTasks(num_tasks=24)],
                                      jobs=1, cache=cache)
        assert simulation_count() == before + 1, \
            "the altered entry must be recomputed"
        assert cache.store.metrics.get("corrupt") == 1
        assert fresh.parallelism == cold.parallelism

    def test_tampered_payload_fails_fingerprint_check(self, tmp_path):
        cache = EvalCache(tmp_path)
        workload = SkewedTasks(num_tasks=24)
        delta_cfg = default_delta_config(lanes=LANES)
        static_cfg = default_baseline_config(lanes=LANES)
        key = cache.key_for(workload, delta_cfg, static_cfg)
        comparison = run_suite_parallel(lanes=LANES, workloads=[workload],
                                        jobs=1, cache=cache)[0]
        # Valid pickle, wrong contents: the stored fingerprint no longer
        # matches, so the entry must be dropped, not served.
        path = cache._path(key)
        entry = pickle.loads(path.read_bytes())
        entry["comparison"].delta.cycles += 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(key) is None
        assert not path.exists()
        fresh = run_suite_parallel(lanes=LANES,
                                   workloads=[SkewedTasks(num_tasks=24)],
                                   jobs=1, cache=cache)[0]
        assert result_stats(fresh.delta) == result_stats(comparison.delta)

    def test_key_distinguishes_configs_and_params(self, tmp_path):
        cache = EvalCache(tmp_path)
        static = default_baseline_config(lanes=LANES)
        base = cache.key_for(SpmvWorkload(), default_delta_config(LANES),
                             static)
        other_lanes = cache.key_for(SpmvWorkload(),
                                    default_delta_config(8), static)
        other_grain = cache.key_for(SpmvWorkload(rows_per_task=2),
                                    default_delta_config(LANES), static)
        assert len({base, other_lanes, other_grain}) == 3

    def test_workload_cache_key_is_stable(self):
        assert workload_cache_key(SpmvWorkload()) == \
            workload_cache_key(SpmvWorkload())
        assert isinstance(CACHE_FORMAT, int)

    def test_clear_removes_entries(self, tmp_path):
        cache = EvalCache(tmp_path)
        run_suite_parallel(lanes=LANES, workloads=fast_workloads(), jobs=1,
                           cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCodeVersionInvalidation:
    """The code-version digest must cover the whole simulator — in
    particular the repro.machine composition layer — so editing any of it
    invalidates cached comparisons."""

    def test_machine_layer_is_covered_by_the_digest(self):
        from repro.store.keys import source_files
        covered = {p.as_posix() for p in source_files()}
        for module in ("machine/machine.py", "machine/session.py",
                       "machine/metrics.py", "machine/result.py"):
            assert any(path.endswith(f"repro/{module}") for path in covered), \
                f"repro/{module} missing from code-version digest"

    def test_graph_layer_is_covered_by_the_digest(self):
        # The structure layer added after the machine layer must join the
        # same digest: editing repro/graph/ invalidates eval-cache entries,
        # whose critical-path bounds the graph layer computes.
        from repro.store.keys import source_files
        covered = {p.as_posix() for p in source_files()}
        for module in ("graph/__init__.py", "graph/ir.py",
                       "graph/analyses.py", "graph/cache.py",
                       "graph/render.py"):
            assert any(path.endswith(f"repro/{module}") for path in covered), \
                f"repro/{module} missing from code-version digest"

    def test_machine_layer_change_invalidates_digest(self, tmp_path):
        from repro.store.keys import digest_tree
        (tmp_path / "machine").mkdir()
        source = tmp_path / "machine" / "session.py"
        source.write_text("STALL_LIMIT = 1\n")
        before = digest_tree(tmp_path)
        source.write_text("STALL_LIMIT = 2\n")
        assert digest_tree(tmp_path) != before

    def test_graph_edit_changes_digest(self, tmp_path):
        from repro.store.keys import digest_tree
        (tmp_path / "graph").mkdir()
        source = tmp_path / "graph" / "ir.py"
        source.write_text("EDGE_KINDS = 3\n")
        before = digest_tree(tmp_path)
        source.write_text("EDGE_KINDS = 4\n")
        assert digest_tree(tmp_path) != before

    def test_code_version_change_invalidates_cache_keys(self, tmp_path,
                                                        monkeypatch):
        import repro.eval.cache as cache_mod
        cache = EvalCache(tmp_path)
        workload = SpmvWorkload()
        delta_cfg = default_delta_config(LANES)
        static_cfg = default_baseline_config(lanes=LANES)
        old = cache.key_for(workload, delta_cfg, static_cfg)
        monkeypatch.setattr(cache_mod, "code_version",
                            lambda: "machine-layer-edited")
        new = cache.key_for(workload, delta_cfg, static_cfg)
        assert new != old


class TestSpeedupGuard:
    def test_zero_cycle_delta_yields_infinite_speedup(self):
        comparison = run_suite(lanes=LANES,
                               workloads=[SkewedTasks(num_tasks=24)])[0]
        comparison.delta.cycles = 0
        assert comparison.speedup == float("inf")
        assert comparison.traffic_ratio > 0
