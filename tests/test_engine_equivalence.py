"""Fast-vs-reference engine equivalence: the bit-identity contract.

``REPRO_ENGINE`` picks the event queue only: the calendar-queue kernel in
:mod:`repro.sim.fastengine` (``fast``, the default) or the heap kernel
(``reference``). Every component runs the same code under both; the
kernels differ only in how they queue a scheduling slot. The contract is
that the switch is *invisible*: every statistic the harness reads —
fingerprints, :class:`RunResult` fields, the full counter bag
— is bit-identical between the two engines, and both drain the same
number of slots.

This module is the enforcement: the full workload registry at two lane
counts on both runtimes, Hypothesis-random programs under seeded-random
machine configurations, and the raw kernel primitives. The reference
heap is the oracle for the queue, so any divergence here is a fast-kernel
bug by definition; the components' oracle is the frozen fingerprints
(``tests/golden_fingerprints.json``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import (
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.eval.runner import compare
from repro.sim import (
    BandwidthServer,
    Environment,
    FastEnvironment,
    Store,
    engine_name,
    make_environment,
    total_events_processed,
)
from repro.sim.fastengine import ENGINE_VAR
from repro.util.fingerprint import (
    comparison_fingerprint,
    result_fingerprint,
    result_stats,
)
from repro.workloads.registry import get_workload, workload_names
from tests.test_properties import (
    FEATURE_COMBOS,
    build_program_from_spec,
    random_program_spec,
)

LANE_COUNTS = [2, 8]

ENGINES = ("reference", "fast")


@contextmanager
def engine(name: str):
    """Select the event kernel for the machines built inside the block."""
    old = os.environ.get(ENGINE_VAR)
    os.environ[ENGINE_VAR] = name
    try:
        yield
    finally:
        if old is None:
            del os.environ[ENGINE_VAR]
        else:
            os.environ[ENGINE_VAR] = old


def _compare_under(engine_choice: str, workload_name: str, lanes: int):
    """One Delta-vs-static comparison under the chosen kernel, and the
    number of scheduling slots its runs drained.

    A fresh workload/program pair is built inside the block: programs are
    stateful across runs, so reusing one across engines would diverge for
    reasons that have nothing to do with the kernel.
    """
    with engine(engine_choice):
        before = total_events_processed()
        comparison = compare(get_workload(workload_name),
                             default_delta_config(lanes=lanes), verify=False)
        return comparison, total_events_processed() - before


def _assert_results_identical(reference, fast, label: str) -> None:
    """Field-by-field bit-identity of two RunResults (reference first)."""
    assert result_fingerprint(fast) == result_fingerprint(reference), (
        f"{label}: fingerprint diverged\n"
        f"  reference: {result_stats(reference)}\n"
        f"  fast:      {result_stats(fast)}")
    # The fingerprint already covers these, but asserting them separately
    # gives a readable diff when a future change breaks one field.
    assert fast.machine == reference.machine
    assert fast.program_name == reference.program_name
    assert fast.cycles == reference.cycles
    assert fast.tasks_executed == reference.tasks_executed
    assert fast.lane_busy == reference.lane_busy
    assert fast.counters.snapshot() == reference.counters.snapshot()
    assert fast.dram_bytes == reference.dram_bytes
    assert fast.noc_bytes == reference.noc_bytes
    assert fast.imbalance_cv == reference.imbalance_cv


# ------------------------------------------------- full workload matrix

@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("workload_name", workload_names())
def test_engines_bit_identical_on_workload(workload_name, lanes):
    """Every registered workload, both runtimes, both lane counts."""
    reference, reference_slots = _compare_under("reference", workload_name,
                                                lanes)
    fast, fast_slots = _compare_under("fast", workload_name, lanes)
    _assert_results_identical(reference.delta, fast.delta,
                              f"{workload_name}@lanes={lanes} [delta]")
    _assert_results_identical(reference.static, fast.static,
                              f"{workload_name}@lanes={lanes} [static]")
    assert comparison_fingerprint(fast) == comparison_fingerprint(reference)
    # Same component code on both kernels, so the same slots: a slot the
    # fast kernel skips or adds is a divergence even if no number moved.
    assert fast_slots == reference_slots, (
        f"{workload_name}@lanes={lanes}: fast drained {fast_slots} slots, "
        f"reference {reference_slots}")


# ------------------------------------------------- randomized configs

@st.composite
def random_machine_config(draw):
    """A seeded-random MachineConfig exercising scheduler/NoC variety."""
    from dataclasses import replace

    lanes = draw(st.sampled_from([1, 2, 4]))
    config = default_delta_config(
        lanes=lanes,
        seed=draw(st.integers(min_value=0, max_value=7)),
        features=FEATURE_COMBOS[draw(st.integers(
            min_value=0, max_value=len(FEATURE_COMBOS) - 1))])
    config = replace(
        config,
        dispatch=replace(config.dispatch,
                         policy=draw(st.sampled_from(
                             ["work-aware", "round-robin", "random",
                              "steal"])),
                         queue_depth=draw(st.sampled_from([2, 16]))),
        lane=replace(config.lane,
                     stream_chunk_bytes=draw(st.sampled_from([64, 256])),
                     config_cycles=draw(st.sampled_from([0, 64]))),
        noc=replace(config.noc,
                    multicast=draw(st.booleans()),
                    hop_latency=draw(st.sampled_from([0, 2]))))
    return config


@settings(max_examples=10, deadline=None)
@given(spec=random_program_spec(), config=random_machine_config())
def test_engines_bit_identical_on_random_programs(spec, config):
    """Random dependence-correct programs × seeded-random machines."""
    with engine("reference"):
        reference = Delta(config).run(build_program_from_spec(spec))
    with engine("fast"):
        fast = Delta(config).run(build_program_from_spec(spec))
    _assert_results_identical(reference, fast, "random-program [delta]")
    assert sorted(fast.state["ran"]) == sorted(reference.state["ran"])


@settings(max_examples=6, deadline=None)
@given(spec=random_program_spec(),
       lanes=st.sampled_from([1, 2, 4]),
       seed=st.integers(min_value=0, max_value=3))
def test_engines_bit_identical_on_static_baseline(spec, lanes, seed):
    """The static-parallel runtime obeys the same contract."""
    config = default_baseline_config(lanes=lanes, seed=seed)
    with engine("reference"):
        reference = StaticParallel(config).run(build_program_from_spec(spec))
    with engine("fast"):
        fast = StaticParallel(config).run(build_program_from_spec(spec))
    _assert_results_identical(reference, fast, "random-program [static]")


# ------------------------------------------------- kernel primitives

@pytest.mark.parametrize("env_cls", [Environment, FastEnvironment])
def test_store_fifo_under_both_kernels(env_cls):
    """The bounded Store behaves identically under either kernel."""
    env = env_cls()
    store = Store(env, capacity=2)
    received = []

    def producer():
        for item in range(7):
            yield store.put(item)
        store.close()

    def consumer():
        while True:
            got = yield store.get()
            if got is Store.END:
                return
            received.append(got)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == list(range(7))


def test_bandwidth_server_timing_matches_between_kernels():
    """transfer_then() completion times agree exactly across kernels."""
    sizes = [100, 3, 57, 1024, 8]
    finishes = {}
    for env_cls in (Environment, FastEnvironment):
        env = env_cls()
        server = BandwidthServer(env, bytes_per_cycle=4.0, latency=3)
        times = []

        def send(index):
            def delivered(_arg):
                times.append(env.now)
                if index + 1 < len(sizes):
                    send(index + 1)

            server.transfer_then(sizes[index], delivered)

        send(0)
        env.run()
        finishes[env_cls.__name__] = (times, env.now,
                                      server.total_bytes,
                                      server.utilization())
    assert finishes["FastEnvironment"] == finishes["Environment"]


def test_fast_kernel_until_bound_matches_reference():
    """run(until=...) stops at the same clock on both kernels."""
    for env_cls in (Environment, FastEnvironment):
        env = env_cls()

        def ticker():
            while True:
                yield env.timeout(10)

        env.process(ticker())
        assert env.run(until=35) == 35
        assert env.now == 35


@pytest.mark.parametrize("env_cls", [Environment, FastEnvironment])
def test_call_slots_interleave_like_reference(env_cls):
    """``_schedule_call_at`` slots keep their queue positions among
    timeouts and ``_schedule_call`` slots, same-time ties included, on
    both kernels."""
    env = env_cls()
    log = []

    def note(tag):
        return lambda _arg: log.append((env.now, tag))

    env.timeout(5).add_callback(note("timeout@5"))
    env._schedule_call_at(5, note("at@5"))
    env._schedule_call_at(0, note("at@0"))
    env._schedule_call(note("call@0"), None)
    env.timeout(0).add_callback(note("timeout@0"))
    env._schedule_call_at(3, lambda arg: log.append((env.now, arg)), "at@3")

    def chain(_arg):
        log.append((env.now, "at@3 chain"))
        # Same-time schedules made while a time is draining go after
        # everything already queued for it, slot by slot.
        env._schedule_call_at(env.now, note("at@3 again"))
        env._schedule_call(note("call@3"), None)
        env._schedule_call_at(env.now + 2, note("at@5 late"))
        env.timeout(2).add_callback(note("timeout@5 late"))

    env._schedule_call_at(3, chain)
    env.run()
    assert log == [
        (0, "at@0"), (0, "call@0"), (0, "timeout@0"),
        (3, "at@3"), (3, "at@3 chain"), (3, "at@3 again"), (3, "call@3"),
        (5, "timeout@5"), (5, "at@5"), (5, "at@5 late"),
        (5, "timeout@5 late"),
    ]
    assert env.events_processed == len(log)


@pytest.mark.parametrize("env_cls", [Environment, FastEnvironment])
def test_raising_slot_leaves_the_rest_queued(env_cls):
    """A slot that raises out of ``run()`` takes only itself off the
    queue: the rest of its time, including a slot it queued for that
    time before raising, runs on the next ``run()``, and
    ``events_processed`` counts each slot that ran exactly once."""
    env = env_cls()
    log = []

    def note(tag):
        return lambda _arg: log.append((env.now, tag))

    def boom(_arg):
        log.append((env.now, "boom"))
        env._schedule_call(note("late"), None)
        raise RuntimeError("boom")

    env._schedule_call_at(5.0, note("a"))
    env._schedule_call_at(5.0, boom)
    env._schedule_call_at(5.0, note("c"))
    env._schedule_call_at(7.0, note("d"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert log == [(5.0, "a"), (5.0, "boom")]
    assert env.events_processed == 2
    env.run()
    assert log == [(5.0, "a"), (5.0, "boom"), (5.0, "c"), (5.0, "late"),
                   (7.0, "d")]
    assert env.events_processed == 5


# ------------------------------------------------- engine selection

def test_engine_defaults_to_fast(monkeypatch):
    monkeypatch.delenv(ENGINE_VAR, raising=False)
    assert engine_name() == "fast"
    assert isinstance(make_environment(), FastEnvironment)


def test_engine_switch_selects_reference(monkeypatch):
    monkeypatch.setenv(ENGINE_VAR, "reference")
    assert engine_name() == "reference"
    env = make_environment()
    assert type(env) is Environment


def test_engine_rejects_unknown_name(monkeypatch):
    monkeypatch.setenv(ENGINE_VAR, "turbo")
    with pytest.raises(ValueError, match="REPRO_ENGINE"):
        engine_name()
