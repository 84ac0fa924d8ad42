"""The in-flight table of ``repro.eval.parallel``: one computation per
point in flight, shared by every batch of the process.

The contract under test (see docs/evaluation.md):

- concurrent requests for one key compute it once; the first request to
  settle reports the computation's outcome, every other ``coalesced``;
- distinct keys stay independent;
- an exception reaches every request that holds the point, and the next
  request computes it afresh;
- sequential requests recompute: completed results are the cache's job;
- under random threads, key sets, worker counts and cancellations, no
  key ever has two computations running at once, every request that was
  not cancelled gets its key's value, every thread finishes, and the
  table empties.
"""

import multiprocessing
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval import parallel as parallel_mod
from repro.eval.parallel import inflight_points, run_points


class Named:
    """Stand-in workload: the table reads only its key; the cost table its
    class and name."""

    def __init__(self, name: str) -> None:
        self.name = name


def point(name: str, *extra) -> tuple:
    """A ``(key, spec)`` request for the stand-in point ``name``."""
    return name, (Named(name), *extra)


def run_threads(*targets, timeout=30):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


def holders(key: str) -> int:
    entry = parallel_mod._inflight._entries.get(key)
    return 0 if entry is None else entry.holders


class GatedPoint:
    """Stand-in point function that counts its calls and blocks on a gate
    until the test has every request registered."""

    def __init__(self, fail: bool = False) -> None:
        self.calls: list = []
        self.gate = threading.Event()
        self.fail = fail

    def __call__(self, spec):
        self.calls.append(spec[0].name)
        assert self.gate.wait(10)
        if self.fail:
            raise RuntimeError("boom")
        return f"value-{spec[0].name}"


def gate_when_held(compute: GatedPoint, key: str, count: int) -> None:
    deadline = time.monotonic() + 10
    while holders(key) < count:
        assert time.monotonic() < deadline, "the requests never registered"
        time.sleep(0.005)
    compute.gate.set()


class TestTable:
    def test_concurrent_requests_compute_once(self, monkeypatch):
        compute = GatedPoint()
        monkeypatch.setattr(parallel_mod, "_compare_point", compute)
        results: list = []
        outcomes: list = []

        def request():
            mine: list = []
            results.extend(run_points([point("k")], jobs=1, outcomes=mine))
            outcomes.extend(mine)

        run_threads(*[request] * 4, lambda: gate_when_held(compute, "k", 4))
        assert results == ["value-k"] * 4
        assert compute.calls == ["k"], "identical in-flight keys compute once"
        assert sorted(outcomes) == ["coalesced"] * 3 + ["ok"]
        assert inflight_points() == 0

    def test_distinct_keys_stay_independent(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            lambda spec: spec[0].name)
        outcomes: list = []
        assert run_points([point("a"), point("b")], jobs=1,
                          outcomes=outcomes) == ["a", "b"]
        assert outcomes == ["ok", "ok"]
        assert inflight_points() == 0

    def test_exception_reaches_every_holder_then_recomputes(self,
                                                            monkeypatch):
        compute = GatedPoint(fail=True)
        monkeypatch.setattr(parallel_mod, "_compare_point", compute)
        failures: list = []

        def request():
            try:
                run_points([point("k")], jobs=1)
            except RuntimeError as exc:
                failures.append(str(exc))

        run_threads(*[request] * 3, lambda: gate_when_held(compute, "k", 3))
        assert failures == ["boom"] * 3
        assert compute.calls == ["k"]
        assert inflight_points() == 0
        # A failed point leaves the table: the next request recomputes.
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            lambda spec: "recovered")
        assert run_points([point("k")], jobs=1) == ["recovered"]

    def test_sequential_requests_recompute(self, monkeypatch):
        # Coalescing is for in-flight work only; completed results are
        # the cache's job.
        calls: list = []
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            lambda spec: calls.append(spec[0].name))
        for _ in range(2):
            run_points([point("k")], jobs=1)
        assert calls == ["k", "k"]


# -- the table under random concurrency -------------------------------------

KEYS = ["k0", "k1", "k2", "k3"]


def _logged_point(spec):
    """Stand-in point that appends its start and end to a log file, so
    computations are seen wherever they run (module-level, so the
    fork-started pool workers resolve it by reference)."""
    named, log, delay_s, _verify = spec
    with open(log, "a") as out:
        out.write(f"start {named.name}\n")
    time.sleep(delay_s)
    with open(log, "a") as out:
        out.write(f"end {named.name}\n")
    return f"value-{named.name}"


#: One batch: its keys, its worker count, and when it is cancelled —
#: never, once it has settled that many points ("after", 0 cancels it
#: before it starts), or that many seconds after it starts ("at").
batches = st.tuples(
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
    st.sampled_from([1, 2]),
    st.one_of(st.just(("never", 0)),
              st.tuples(st.just("after"), st.integers(0, 2)),
              st.tuples(st.just("at"), st.floats(0.0, 0.03))))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers must inherit the logging point function")
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(batches, min_size=2, max_size=4),
       st.sampled_from([0.002, 0.01]))
def test_random_batches_share_each_computation(plan, delay_s):
    real = parallel_mod._compare_point
    switch = sys.getswitchinterval()
    parallel_mod._compare_point = _logged_point
    sys.setswitchinterval(1e-6)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            log = Path(scratch) / "computations.log"
            log.touch()
            check_batches(plan, str(log), delay_s)
    finally:
        sys.setswitchinterval(switch)
        parallel_mod._compare_point = real


def check_batches(plan, log: str, delay_s: float) -> None:
    results: dict = {}
    outcomes: dict = {}
    timers = []

    def batch(number, keys, jobs, cancel_when):
        how, when = cancel_when
        cancel = threading.Event()
        mine: list = []
        settled: list = []

        def on_point(index, result, outcome):
            settled.append(index)
            if how == "after" and len(settled) >= when:
                cancel.set()

        if how == "after" and when == 0:
            cancel.set()
        elif how == "at":
            timer = threading.Timer(when, cancel.set)
            timers.append(timer)
            timer.start()
        results[number] = run_points(
            [point(key, log, delay_s, True) for key in keys], jobs,
            outcomes=mine, cancel=cancel, on_point=on_point)
        outcomes[number] = mine

    try:
        run_threads(*[
            (lambda number=number, spec=spec: batch(number, *spec))
            for number, spec in enumerate(plan)])
    finally:
        for timer in timers:
            timer.cancel()

    # Every computation a cancelled batch left in the pool ends on its
    # own; the table lets go of it when it does.
    deadline = time.monotonic() + 10
    while True:
        events = Path(log).read_text().split("\n")[:-1]
        started = sum(line.startswith("start") for line in events)
        if (started == len(events) - started and inflight_points() == 0):
            break
        assert time.monotonic() < deadline, "the table never emptied"
        time.sleep(0.01)

    running: Counter = Counter()
    computations: Counter = Counter()
    for line in events:
        kind, key = line.split()
        if kind == "start":
            assert running[key] == 0, f"{key} computed twice at once"
            computations[key] += 1
        running[key] += 1 if kind == "start" else -1

    reports: Counter = Counter()
    for number, (keys, _jobs, _cancel) in enumerate(plan):
        for key, result, outcome in zip(keys, results[number],
                                        outcomes[number]):
            assert outcome in {"ok", "coalesced", "cancelled"}
            if outcome == "cancelled":
                assert result is None
            else:
                assert result == f"value-{key}"
            reports[key] += outcome == "ok"
    for key in KEYS:
        # Each computation is reported at most once.
        assert reports[key] <= computations[key]
