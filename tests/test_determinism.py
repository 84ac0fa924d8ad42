"""The determinism contract: same seed => bit-identical run statistics.

Every stochastic component draws from :mod:`repro.util.rng`, seeded from
the configuration alone, so repeating a (workload, config) point must
reproduce every statistic bit-for-bit — on both machines, for every
registered workload. This is what makes the on-disk result cache sound
and golden regression files meaningful.
"""

import pytest

from repro.arch.config import default_delta_config
from repro.core.delta import Delta
from repro.eval.cache import comparison_key
from repro.eval.runner import compare
from repro.util.fingerprint import result_fingerprint, result_stats
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import SkewedTasks

LANES = 4


@pytest.mark.parametrize("name", workload_names())
def test_same_seed_is_bit_identical_on_both_machines(name):
    """Two runs of the same point agree on every statistic, both machines."""
    first = compare(get_workload(name), default_delta_config(lanes=LANES),
                    verify=False)
    second = compare(get_workload(name), default_delta_config(lanes=LANES),
                     verify=False)
    # Full stats tuples (cycles, tasks, per-lane busy vector, every
    # hardware counter) — not just headline numbers.
    assert result_stats(first.delta) == result_stats(second.delta)
    assert result_stats(first.static) == result_stats(second.static)
    assert result_fingerprint(first.delta) == result_fingerprint(second.delta)
    assert result_fingerprint(first.static) == \
        result_fingerprint(second.static)


def test_different_seeds_differ_where_the_seed_matters():
    """The harness surfaces seed differences instead of masking them.

    The ``random`` dispatch policy draws lane choices from the
    config-seeded RNG, so two seeds must produce observably different
    schedules (and therefore different busy vectors / cycle counts).
    """
    workload = SkewedTasks()
    runs = {}
    for seed in (0, 1):
        cfg = default_delta_config(lanes=LANES, seed=seed)
        cfg = cfg.with_policy("random")
        result = Delta(cfg).run(workload.build_program())
        runs[seed] = result_fingerprint(result)
    assert runs[0] != runs[1]


def test_different_seeds_get_different_cache_keys():
    """Distinct seeds are distinct cache points — never served as repeats."""
    workload = get_workload("spmv")
    keys = set()
    for seed in (0, 1):
        delta_cfg = default_delta_config(lanes=LANES, seed=seed)
        from repro.arch.config import default_baseline_config

        static_cfg = default_baseline_config(lanes=LANES, seed=seed)
        keys.add(comparison_key(workload, delta_cfg, static_cfg))
    assert len(keys) == 2


def test_same_seed_same_cache_key_across_instances():
    """Rebuilding the same workload yields the same key (stable hashing)."""
    from repro.arch.config import default_baseline_config

    delta_cfg = default_delta_config(lanes=LANES)
    static_cfg = default_baseline_config(lanes=LANES)
    key_a = comparison_key(get_workload("spmv"), delta_cfg, static_cfg)
    key_b = comparison_key(get_workload("spmv"), delta_cfg, static_cfg)
    assert key_a == key_b
