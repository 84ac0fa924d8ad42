"""The cache-hit path: what an entry's digest catches, and what a hit costs.

A warm sweep never simulates, so a hit's own host work is all it pays
for. The contract under test (see docs/evaluation.md, "The result
cache"):

- an entry is the SHA-256 digest of its body followed by the body, the
  ``marshal`` (version 4) bytes of the workload name, both runs' stats and
  the critical-path bound; an entry written from a live comparison and
  one written from its unpickled copy read back equal, and any one change
  to the body behind the digest as written reads as corrupt;
- a hit never unpickles: a body that is a pickle reads as corrupt and
  runs none of its code;
- the key is ``stable_hash(CACHE_FORMAT, code_version(), delta config,
  static config, verify, workload identity)``, bit for bit, however it is
  built, from any thread, and each part alone moves it;
- a warm batch makes fixed counts of the calls a hit once paid for: the
  counts below are upper bounds, lowered when a change lowers them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import marshal
import math
import os
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
from repro.store.keys import code_version, stable_hash, workload_identity
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
    # A hit decodes its stored bytes once and never unpickles (18 before
    # entries were marshal bodies).
    "pickle.loads": 0,
    "marshal.loads": 18,
    # The digest covers the stored bytes, so nothing is re-encoded (18).
    "marshal.dumps": 0,
    # One key state per batch and one copy per point, plus one digest per
    # hit (54: a workload key, a point key and a digest per hit).
    "hashlib.sha256": 19,
}

#: Pins that are exact counts, not only bounds: one per hit.
ONE_PER_HIT = ("ShardedStore.read", "marshal.loads")


def registered_classes() -> list[type]:
    return [type(get_workload(name)) for name in workload_names()]


def bound_arguments(cls: type, *args, **kwargs) -> tuple:
    """What ``Signature.bind`` plus ``apply_defaults`` records for a
    constructor call: the oracle for ``Workload.arguments``."""
    bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.items())[1:]


def key_formula(workload, delta_config, static_config, verify) -> str:
    return stable_hash(CACHE_FORMAT, code_version(), delta_config,
                       static_config, verify, workload_identity(workload))


def layout_body(comparison) -> bytes:
    """The documented entry body: the fields a comparison's fingerprint
    covers, plus the bound, as version-4 ``marshal`` bytes."""
    return marshal.dumps((comparison.workload, comparison.delta.stats,
                          comparison.static.stats, comparison.parallelism), 4)


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


def test_entry_is_the_digest_of_its_body_then_the_body(
        registry_comparisons):
    for point, c in registry_comparisons.items():
        body = layout_body(c)
        assert cache_mod._encode(c) == \
            hashlib.sha256(body).digest() + body, point


def test_live_and_unpickled_comparisons_read_back_equal(
        tmp_path, registry_comparisons):
    # A pool worker's result reaches the writer unpickled, and version-4
    # marshal may encode it to other bytes than the live comparison: both
    # entries must read back as the comparison they were written from.
    cache = EvalCache(tmp_path)
    for point, c in registry_comparisons.items():
        keys = [hashlib.sha256(f"{point} {side}".encode()).hexdigest()
                for side in ("live", "unpickled")]
        cache.put(keys[0], c)
        cache.put(keys[1], pickle.loads(pickle.dumps(c)))
        live, unpickled = (cache.get(key) for key in keys)
        assert live == unpickled == c, point
        fingerprint = fingerprint_mod.comparison_fingerprint
        assert fingerprint(live) == fingerprint(unpickled) == \
            fingerprint(c), point
    assert cache.hits == 2 * len(registry_comparisons)
    assert cache.store.counters.get("cache.corrupt") == 0
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


def fill_one_point(cache, delta_config):
    """Fill ``cache`` with one small point; returns (comparison, key)."""
    (comparison,) = run_suite_parallel(
        workloads=[SkewedTasks(num_tasks=24)], jobs=1, cache=cache,
        delta_config=delta_config)
    key = comparison_key(SkewedTasks(num_tasks=24), delta_config,
                         static_config_for(delta_config))
    return comparison, key


@pytest.mark.parametrize("edit", sorted(SINGLE_EDITS))
def test_one_changed_field_reads_as_corrupt(tmp_path, edit):
    cache = EvalCache(tmp_path)
    delta_config = default_delta_config(lanes=4)
    original, key = fill_one_point(cache, delta_config)
    path = cache._path(key)
    payload = path.read_bytes()
    assert payload[32:] == layout_body(original)
    edited = SINGLE_EDITS[edit](original)
    assert edited != original
    assert layout_body(edited) != payload[32:]
    # The stored digest is left as written.
    path.write_bytes(payload[:32] + layout_body(edited))

    misses = cache.misses  # the fill's own miss
    assert cache.get(key) is None
    assert cache.misses == misses + 1
    assert cache.store.counters.get("cache.corrupt") == 1
    before = simulation_count()
    (fresh,) = run_suite_parallel(workloads=[SkewedTasks(num_tasks=24)],
                                  jobs=1, cache=cache,
                                  delta_config=delta_config)
    assert simulation_count() == before + 1
    assert fresh == original
    assert cache.get(key) == original


class Marker:
    """Unpickles by creating the directory ``path``."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


#: Bodies that are not an entry's, each stored behind its own digest.
FOREIGN_BODIES = {
    "empty": lambda c: b"",
    "three-fields": lambda c: marshal.dumps(
        (c.workload, c.delta.stats, c.static.stats), 4),
    "stats-as-lists": lambda c: marshal.dumps(
        (c.workload, list(c.delta.stats), list(c.static.stats),
         c.parallelism), 4),
    "short-run": lambda c: marshal.dumps(
        (c.workload, c.delta.stats[:5], c.static.stats, c.parallelism), 4),
    "truncated": lambda c: layout_body(c)[:-1],
    "code-object": lambda c: marshal.dumps(compile("1", "x", "eval"), 4),
}


@pytest.mark.parametrize("body", sorted(FOREIGN_BODIES))
def test_a_foreign_body_behind_a_matching_digest_reads_as_corrupt(
        tmp_path, body):
    cache = EvalCache(tmp_path)
    original, key = fill_one_point(cache, default_delta_config(lanes=4))
    foreign = FOREIGN_BODIES[body](original)
    cache._path(key).write_bytes(hashlib.sha256(foreign).digest() + foreign)
    assert cache.get(key) is None
    assert cache.store.counters.get("cache.corrupt") == 1
    assert not cache._path(key).exists()


def test_a_pickled_body_is_never_unpickled(tmp_path):
    cache = EvalCache(tmp_path)
    _original, key = fill_one_point(cache, default_delta_config(lanes=4))
    # The payload is armed: unpickling it creates its marker.
    armed = tmp_path / "armed"
    pickle.loads(pickle.dumps(Marker(armed)))
    assert armed.is_dir()

    marker = tmp_path / "marker"
    body = pickle.dumps(Marker(marker), pickle.HIGHEST_PROTOCOL)
    cache._path(key).write_bytes(hashlib.sha256(body).digest() + body)
    misses = cache.misses
    assert cache.get(key) is None
    assert cache.misses == misses + 1
    assert cache.store.counters.get("cache.corrupt") == 1
    assert not marker.exists()
    assert not cache._path(key).exists()


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


def test_each_part_alone_moves_the_key(monkeypatch):
    class Subclassed(SkewedTasks):
        pass

    workload = SkewedTasks()
    renamed = SkewedTasks()
    renamed.name = workload.name + "_"
    delta_config = default_delta_config(lanes=4)
    static_config = static_config_for(delta_config)
    point = (delta_config, static_config, True)
    keys = {
        "base": comparison_key(workload, *point),
        "workload class": comparison_key(Subclassed(), *point),
        "workload name": comparison_key(renamed, *point),
        "workload arguments": comparison_key(SkewedTasks(num_tasks=7),
                                             *point),
        "delta config": comparison_key(
            workload, delta_config.with_sanitize(True), static_config),
        "static config": comparison_key(
            workload, delta_config, static_config.with_sanitize(True)),
        "verify": comparison_key(workload, delta_config, static_config,
                                 False),
    }
    # Equal copies of the configs keep their reprs, and a batch of new
    # config objects hashes the format afresh.
    def copies():
        return (dataclasses.replace(delta_config),
                dataclasses.replace(static_config), True)

    assert comparison_key(workload, *copies()) == keys["base"]
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
    keys["format"] = comparison_key(workload, *copies())
    monkeypatch.undo()
    monkeypatch.setattr(cache_mod, "code_version", lambda: "edited")
    keys["code version"] = comparison_key(workload, *point)
    assert len(set(keys.values())) == len(keys), keys


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
    for module, attr in [(pickle, "loads"), (marshal, "loads"),
                         (marshal, "dumps"), (hashlib, "sha256")]:
        monkeypatch.setattr(module, attr, counting(
            f"{module.__name__}.{attr}", getattr(module, attr)))
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
    for name in ONE_PER_HIT:
        assert counts[name] == HIT_PATH_PINS[name] == len(classes), name
    over = {name: count for name, count in counts.items()
            if count > HIT_PATH_PINS[name]}
    assert not over, f"a warm batch makes more calls than pinned: {over}"
