"""Unit tests for repro.util (rng, stats, validation)."""


import pytest
from hypothesis import given, strategies as st

from repro.sim import Environment, UtilizationTracker
from repro.util import (
    DeterministicRng,
    Histogram,
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    coefficient_of_variation,
    geomean,
    mean,
    percentile,
)
from repro.util.counters import Counters
from repro.util.validate import ConfigError


# ------------------------------------------------------------------- rng

def test_rng_reproducible_across_instances():
    a = DeterministicRng("seed", 1)
    b = DeterministicRng("seed", 1)
    assert [a.randint(0, 100) for _ in range(10)] == \
           [b.randint(0, 100) for _ in range(10)]


def test_rng_different_seeds_differ():
    a = DeterministicRng("seed", 1)
    b = DeterministicRng("seed", 2)
    assert [a.randint(0, 10**9) for _ in range(5)] != \
           [b.randint(0, 10**9) for _ in range(5)]


def test_rng_fork_independent_of_parent_consumption():
    parent1 = DeterministicRng("root")
    child1 = parent1.fork("child")
    parent2 = DeterministicRng("root")
    parent2.random()  # consume from parent
    child2 = parent2.fork("child")
    assert [child1.random() for _ in range(5)] == \
           [child2.random() for _ in range(5)]


def test_zipf_sizes_bounds_and_skew():
    rng = DeterministicRng("zipf")
    sizes = rng.zipf_sizes(2000, alpha=1.5, max_size=64)
    assert len(sizes) == 2000
    assert all(1 <= s <= 64 for s in sizes)
    # Skew: small sizes dominate under Zipf.
    ones = sum(1 for s in sizes if s == 1)
    assert ones > 2000 * 0.3


def test_zipf_sizes_edge_cases():
    rng = DeterministicRng("zipf-edge")
    assert rng.zipf_sizes(0, 1.0, 10) == []
    assert rng.zipf_sizes(5, 1.0, 1) == [1] * 5
    with pytest.raises(ValueError):
        rng.zipf_sizes(5, 1.0, 0)


def test_power_law_degrees_range():
    rng = DeterministicRng("deg")
    degs = rng.power_law_degrees(500, alpha=2.0, min_deg=2, max_deg=50)
    assert all(2 <= d <= 50 for d in degs)


def test_pick_weighted_validates():
    rng = DeterministicRng("w")
    with pytest.raises(ValueError):
        rng.pick_weighted([], [])
    with pytest.raises(ValueError):
        rng.pick_weighted([1, 2], [1.0])


def test_pick_weighted_respects_weights():
    rng = DeterministicRng("w2")
    picks = [rng.pick_weighted(["rare", "common"], [0.01, 0.99])
             for _ in range(200)]
    assert picks.count("common") > 150


# ----------------------------------------------------------------- stats

def test_mean_and_geomean_basic():
    assert mean([2, 4, 6]) == 4
    assert geomean([1, 100]) == pytest.approx(10.0)


def test_geomean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_cv_zero_for_uniform():
    assert coefficient_of_variation([5, 5, 5]) == 0.0


def test_cv_known_value():
    # values 0, 10: mean 5, population stddev 5 -> CV = 1.
    assert coefficient_of_variation([0, 10]) == pytest.approx(1.0)


def test_percentile_interpolation():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == pytest.approx(25.0)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                max_size=50))
def test_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=50), st.floats(min_value=0, max_value=100))
def test_percentile_within_range(values, pct):
    p = percentile(values, pct)
    assert min(values) <= p <= max(values)


def test_histogram_buckets_and_render():
    h = Histogram(bucket_width=10)
    h.extend([1, 2, 11, 95])
    assert h.total == 4
    buckets = h.buckets()
    assert buckets[0] == (0, 10, 2)
    assert buckets[1] == (10, 20, 1)
    assert "####" in h.render()


def test_histogram_empty_render():
    assert Histogram(1.0).render() == "(empty histogram)"
    with pytest.raises(ValueError):
        Histogram(0)


# -------------------------------------------------------------- validate

def test_check_positive():
    check_positive("x", 1)
    with pytest.raises(ConfigError, match="x must be positive"):
        check_positive("x", 0)


def test_check_non_negative():
    check_non_negative("x", 0)
    with pytest.raises(ConfigError):
        check_non_negative("x", -1)


def test_check_in_range():
    check_in_range("x", 5, 0, 10)
    with pytest.raises(ConfigError):
        check_in_range("x", 11, 0, 10)


def test_check_power_of_two():
    for good in (1, 2, 4, 64):
        check_power_of_two("banks", good)
    for bad in (0, 3, -4, 6):
        with pytest.raises(ConfigError):
            check_power_of_two("banks", bad)


# ------------------------------------------------------------- counters

def test_counters_add_get_prefix():
    c = Counters()
    c.add("dram.bytes", 100)
    c.add("dram.bytes", 50)
    c.add("noc.bytes", 10)
    c.add("noc.messages")
    assert c.get("dram.bytes") == 150
    assert c.get("noc.messages") == 1
    assert "dram.bytes" in c
    assert "missing" not in c
    assert c.get("missing") == 0
    assert c.get("missing", 7.0) == 7.0
    assert c.render("noc.").splitlines() == ["noc.bytes     10.0",
                                             "noc.messages  1.0"]


def test_counters_set_max():
    c = Counters()
    c.set_max("depth", 3)
    c.set_max("depth", 1)
    c.set_max("depth", 7)
    assert c.get("depth") == 7


def test_counters_render():
    c = Counters()
    c.add("x", 3)
    c.add("y", 1234.5)
    assert c.render() == "x  3.0\ny  1,234.5"
    assert c.render("z") == "(no counters)"
    assert Counters().render() == "(no counters)"


def test_counters_snapshot_round_trips():
    c = Counters()
    c.add("noc.bytes", 1)
    c.add("dram.read_bytes", 2)
    assert c.snapshot() == (("dram.read_bytes", 2.0), ("noc.bytes", 1.0))
    assert list(c.items()) == list(c.snapshot())
    rebuilt = Counters.from_snapshot(c.snapshot())
    assert rebuilt.snapshot() == c.snapshot()
    rebuilt.add("noc.bytes", 1)
    assert c.get("noc.bytes") == 1  # a copy, not a view


def test_utilization_tracker():
    env = Environment()
    counters = Counters()
    tracker = UtilizationTracker(env, counters, "lane0")

    def proc():
        yield env.timeout(10)
        tracker.busy(10)
        yield env.timeout(10)

    env.process(proc())
    env.run()
    assert tracker.busy_cycles == 10
    assert tracker.last_active == 10
    assert tracker.utilization() == pytest.approx(0.5)
    assert counters.get("lane0.busy_cycles") == 10
    with pytest.raises(ValueError):
        tracker.busy(-1)
