"""The cache-hit path: what an entry's digest catches, and what a hit costs.

A warm sweep never simulates, so a hit's own host work is all it pays
for. The contract under test (see docs/evaluation.md, "The result
cache"):

- the entry digest is the same for a live comparison and its unpickled
  copy, so the process that writes an entry and the one that reads it
  agree, and it moves with any one change to the workload name, either
  run's stats, or the critical-path bound;
- the key is ``stable_hash(CACHE_FORMAT, code_version(), workload
  identity, delta config, static config, verify)``, bit for bit, however
  it is built, from any thread;
- a warm batch makes fixed counts of the calls a hit once paid for: the
  counts below are upper bounds, lowered when a change lowers them.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.config import MachineConfig, default_delta_config
from repro.eval import cache as cache_mod
from repro.eval.cache import CACHE_FORMAT, EvalCache, comparison_key
from repro.eval.parallel import run_suite_parallel
from repro.eval.runner import compare, simulation_count, static_config_for
from repro.sched.api import policy_names
from repro.sim.faults import FaultPlan, LaneFailure, RetryPolicy
from repro.store.keys import code_version, stable_hash, workload_cache_key
from repro.store.sharded import ShardedStore
from repro.util import fingerprint as fingerprint_mod
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import SkewedTasks

#: The fault plan of tests/test_faults.py's seeded-determinism matrix.
RICH_PLAN = FaultPlan(
    lane_failures=(LaneFailure(1, 2000.0),),
    task_fault_rate=0.2, noc_drop_rate=0.02,
    dram_spike_rate=0.05, dram_spike_cycles=200.0,
    retry=RetryPolicy(max_attempts=8, backoff_cycles=32.0), seed=7)

#: Upper bounds on what one warm 18-workload ``run_suite_parallel``
#: batch makes, its 18 workloads constructed with default arguments as
#: the registry and ``repro serve`` build them. A change may lower a
#: bound and re-freeze it; a rise must be justified.
HIT_PATH_PINS = {
    # The entry digest covers the fingerprint's fields itself.
    "comparison_fingerprint": 0,
    # Default construction records precomputed arguments.
    "Signature.bind": 0,
    # Both configs' reprs are built once per batch, not once per point.
    "MachineConfig.__repr__": 2,
    # One read per point: a hit re-reads nothing.
    "ShardedStore.read": 18,
}


def registered_classes() -> list[type]:
    return [type(get_workload(name)) for name in workload_names()]


def bound_arguments(cls: type, *args, **kwargs) -> tuple:
    """What ``Signature.bind`` plus ``apply_defaults`` records for a
    constructor call: the oracle for ``Workload.arguments``."""
    bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.items())[1:]


def key_formula(workload, delta_config, static_config, verify) -> str:
    return stable_hash(CACHE_FORMAT, code_version(),
                       workload_cache_key(workload),
                       delta_config, static_config, verify)


# -- the entry digest -----------------------------------------------------

@pytest.fixture(scope="module")
def registry_comparisons() -> dict:
    """Every registered workload at lanes 2, 8 and 16, plus one sanitized
    and one ``RICH_PLAN``-faulted point."""
    points = {}
    for lanes in (2, 8, 16):
        for name in workload_names():
            points[f"{name}@{lanes}"] = compare(
                get_workload(name), default_delta_config(lanes=lanes),
                verify=False)
    points["spmv@4 sanitized"] = compare(
        get_workload("spmv"), default_delta_config(lanes=4).with_sanitize(),
        verify=False)
    points["micro-skewed@4 RICH_PLAN"] = compare(
        get_workload("micro-skewed"),
        default_delta_config(lanes=4).with_faults(RICH_PLAN), verify=False)
    return points


def test_digest_survives_a_pickle_round_trip(registry_comparisons):
    # The writer digests a live comparison, the reader its unpickled copy
    # (in another process when a pool worker wrote the entry).
    differ = [point for point, c in registry_comparisons.items()
              if cache_mod._entry_digest(c)
              != cache_mod._entry_digest(pickle.loads(pickle.dumps(c)))]
    assert not differ
    assert len(registry_comparisons) == 3 * len(workload_names()) + 2


def _scalars(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _scalars(item)
    else:
        yield value


def test_digested_values_are_plain_data(registry_comparisons):
    # marshal writes these bit-exact and rejects anything else, numpy
    # scalars and other subclasses included.
    for point, c in registry_comparisons.items():
        for value in (c.workload, c.parallelism,
                      *_scalars(c.delta.stats), *_scalars(c.static.stats)):
            assert type(value) in (str, int, float), (point, value)


def _nudge(value: float) -> float:
    return math.nextafter(value, math.inf)


def _edit_counter(record, edit):
    """``record`` with one counter snapshot entry replaced by ``edit``'s."""
    snapshot = list(record.counter_snapshot)
    index = next(i for i, (_, value) in enumerate(snapshot) if value)
    snapshot[index] = edit(*snapshot[index])
    return dataclasses.replace(record, counter_snapshot=tuple(snapshot))


def _edit_run(side: str, **changes):
    def edit(c):
        return dataclasses.replace(
            c, **{side: dataclasses.replace(getattr(c, side), **changes)})
    return edit


def _edit_lane_busy(c):
    busy = list(c.static.lane_busy)
    busy[-1] = _nudge(busy[-1])
    return dataclasses.replace(
        c, static=dataclasses.replace(c.static, lane_busy=tuple(busy)))


#: One change each; every one must fail the digest check.
SINGLE_EDITS = {
    "counter-value-one-ulp": lambda c: dataclasses.replace(
        c, delta=_edit_counter(c.delta,
                               lambda name, value: (name, _nudge(value)))),
    "counter-renamed": lambda c: dataclasses.replace(
        c, static=_edit_counter(c.static,
                                lambda name, value: (name + "_", value))),
    "lane-busy-entry": _edit_lane_busy,
    "cycles": lambda c: _edit_run("delta", cycles=_nudge(c.delta.cycles))(c),
    "tasks-executed": lambda c: _edit_run(
        "static", tasks_executed=c.static.tasks_executed + 1)(c),
    "parallelism": lambda c: dataclasses.replace(
        c, parallelism=_nudge(c.parallelism)),
    "workload-name": lambda c: dataclasses.replace(
        c, workload=c.workload + "_"),
}


@pytest.mark.parametrize("edit", sorted(SINGLE_EDITS))
def test_one_changed_field_reads_as_corrupt(tmp_path, edit):
    cache = EvalCache(tmp_path)
    delta_config = default_delta_config(lanes=4)
    (original,) = run_suite_parallel(workloads=[SkewedTasks(num_tasks=24)],
                                     jobs=1, cache=cache,
                                     delta_config=delta_config)
    key = comparison_key(SkewedTasks(num_tasks=24), delta_config,
                         static_config_for(delta_config))
    path = cache._path(key)
    entry = pickle.loads(path.read_bytes())
    edited = SINGLE_EDITS[edit](entry["comparison"])
    assert edited != entry["comparison"]
    entry["comparison"] = edited  # the stored digest is left as written
    path.write_bytes(pickle.dumps(entry))

    misses = cache.misses  # the fill's own miss
    assert cache.get(key) is None
    assert cache.misses == misses + 1
    assert cache.store.metrics.get("corrupt") == 1
    before = simulation_count()
    (fresh,) = run_suite_parallel(workloads=[SkewedTasks(num_tasks=24)],
                                  jobs=1, cache=cache,
                                  delta_config=delta_config)
    assert simulation_count() == before + 1
    assert fresh == original
    assert cache.get(key) == original


# -- the key ----------------------------------------------------------------

fault_plans = st.one_of(
    st.none(), st.just(RICH_PLAN),
    st.builds(FaultPlan,
              task_fault_rate=st.sampled_from([0.0, 0.1, 0.25]),
              noc_drop_rate=st.sampled_from([0.0, 0.01]),
              seed=st.integers(0, 2**31)))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lanes=st.integers(1, 64), seed=st.integers(0, 2**63),
       policy=st.sampled_from(policy_names()), sanitize=st.booleans(),
       faults=fault_plans, verify=st.booleans())
def test_key_equals_its_formula(lanes, seed, policy, sanitize, faults,
                                verify):
    delta_config = default_delta_config(lanes=lanes, seed=seed) \
        .with_policy(policy).with_sanitize(sanitize).with_faults(faults)
    static_config = static_config_for(delta_config)
    for cls in registered_classes():
        workload = cls()
        assert workload.arguments == bound_arguments(cls)
        assert comparison_key(workload, delta_config, static_config,
                              verify) == \
            key_formula(workload, delta_config, static_config, verify)
    # Each part alone changes between consecutive keys, and equal but
    # distinct configs key the same as the objects they equal.
    other_delta = delta_config.with_sanitize(not sanitize)
    other_static = static_config.with_sanitize(not sanitize)
    for parts in [(delta_config, static_config, not verify),
                  (delta_config, other_static, not verify),
                  (other_delta, other_static, not verify),
                  (dataclasses.replace(delta_config),
                   dataclasses.replace(static_config), verify)]:
        assert comparison_key(workload, *parts) == \
            key_formula(workload, *parts)


def test_equal_configs_with_different_reprs_key_apart():
    # 0.0 == -0.0, but their reprs, and so the keys, differ: a reused
    # config part must be the same object, not an equal one.
    workload = SkewedTasks()
    keys = set()
    for zero in (0.0, -0.0):
        delta_config = default_delta_config(lanes=4).with_faults(
            FaultPlan(dram_spike_cycles=zero))
        static_config = static_config_for(delta_config)
        key = comparison_key(workload, delta_config, static_config)
        assert key == key_formula(workload, delta_config, static_config,
                                  True)
        keys.add(key)
    assert len(keys) == 2


@pytest.mark.parametrize("cls", registered_classes(),
                         ids=lambda cls: cls.__name__)
def test_explicit_arguments_record_as_bound(cls):
    defaults = dict(bound_arguments(cls))
    assert cls(**defaults).arguments == cls().arguments
    first, value = next(iter(defaults.items()))
    assert cls(value).arguments == cls(**{first: value}).arguments == \
        cls().arguments
    # Every registered workload's first parameter is a size it accepts
    # doubled.
    for args, kwargs in [((value * 2,), {}), ((), {first: value * 2})]:
        assert cls(*args, **kwargs).arguments == \
            bound_arguments(cls, *args, **kwargs) != cls().arguments


def test_threads_keying_different_configs_get_their_own_keys():
    # repro serve keys concurrent jobs' points from several threads; more
    # threads than a small host has cores, switching as often as it can.
    classes = registered_classes()
    configs = [default_delta_config(lanes=lanes, seed=lanes)
               for lanes in (2, 4, 8, 16)]
    expected = [[key_formula(cls(), config, static_config_for(config), True)
                 for cls in classes] for config in configs]
    start = threading.Barrier(len(configs))
    wrong: list = []

    def key_points(which: int) -> None:
        start.wait()
        for _ in range(30):
            config = configs[which]
            static = static_config_for(config)
            got = [comparison_key(cls(), config, static) for cls in classes]
            if got != expected[which]:
                wrong.append(which)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=key_points, args=(which,))
                   for which in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# -- what a warm batch costs -----------------------------------------------

@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """An 18-workload cache filled at 2 lanes with default inputs."""
    cache = EvalCache(tmp_path_factory.mktemp("hits"))
    results = run_suite_parallel(
        workloads=[cls() for cls in registered_classes()], jobs=1,
        cache=cache, delta_config=default_delta_config(lanes=2))
    assert None not in results
    return cache


def test_warm_batch_costs(filled_cache, monkeypatch):
    counts = dict.fromkeys(HIT_PATH_PINS, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    fingerprint = fingerprint_mod.comparison_fingerprint
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "repro" and getattr(
                module, "comparison_fingerprint", None) is fingerprint):
            monkeypatch.setattr(module, "comparison_fingerprint",
                                counting("comparison_fingerprint",
                                         fingerprint))
    monkeypatch.setattr(inspect.Signature, "bind",
                        counting("Signature.bind", inspect.Signature.bind))
    monkeypatch.setattr(ShardedStore, "read",
                        counting("ShardedStore.read", ShardedStore.read))
    depth = [0]
    config_repr = MachineConfig.__repr__

    def top_level_repr(self):
        counts["MachineConfig.__repr__"] += depth[0] == 0
        depth[0] += 1
        try:
            return config_repr(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(MachineConfig, "__repr__", top_level_repr)

    classes = registered_classes()
    outcomes: list = []
    before = simulation_count()
    results = run_suite_parallel(
        workloads=[cls() for cls in classes], jobs=1, cache=filled_cache,
        delta_config=default_delta_config(lanes=2), outcomes=outcomes)
    assert outcomes == ["cached"] * len(classes)
    assert None not in results
    assert simulation_count() == before
    assert len(classes) == HIT_PATH_PINS["ShardedStore.read"]
    assert counts["ShardedStore.read"] == HIT_PATH_PINS["ShardedStore.read"]
    over = {name: count for name, count in counts.items()
            if count > HIT_PATH_PINS[name]}
    assert not over, f"a warm batch makes more calls than pinned: {over}"
