"""The shared store layer: sharding, locking, eviction, counters.

The contract under test (see docs/storage.md):

- entries publish atomically into digest-prefix shards; readers see an
  old or a complete new entry, never a torn one;
- a truncated / garbage / tampered entry is logged, counted
  (``cache.corrupt``), deleted, and recomputed — never raised and never
  served;
- the size cap holds: after eviction runs the store is within budget,
  and the least-recently-used entries go first;
- N concurrent processes hammering one store corrupt nothing and lose
  no published writes;
- the parallel evaluation path stays field-identical to the serial path
  with coalescing and eviction in play.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import random
import threading
import time
from pathlib import Path

import pytest

from repro.store import (
    ShardLock,
    ShardedStore,
    cache_budget_bytes,
    open_store,
)
from repro.store import sharded
from repro.util.counters import Counters
from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

KEY_A = hashlib.sha256(b"a").hexdigest()
KEY_B = hashlib.sha256(b"b").hexdigest()
KEY_C = hashlib.sha256(b"c").hexdigest()


# ------------------------------------------------------------ basic store

class TestShardedStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"payload")
        assert store.read("eval", KEY_A) == b"payload"
        # Sharded by digest prefix: <root>/<namespace>/<k[:2]>/<k>.pkl.
        path = store.path_for("eval", KEY_A)
        assert path == tmp_path / "eval" / KEY_A[:2] / f"{KEY_A}.pkl"
        assert path.exists()

    def test_payload_larger_than_one_read_roundtrips(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        payload = os.urandom(3 * sharded._READ_SIZE + 17)
        store.write("eval", KEY_A, payload)
        old = time.time() - 3600
        path = store.path_for("eval", KEY_A)
        os.utime(path, (old, old))
        assert store.read("eval", KEY_A) == payload
        assert path.stat().st_mtime > old + 60  # the read refreshed it

    def test_miss_returns_none(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        assert store.read("eval", KEY_A) is None

    def test_namespaces_are_disjoint(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"comparison")
        store.write("structure", KEY_A, b"summary")
        assert store.read("eval", KEY_A) == b"comparison"
        assert store.read("structure", KEY_A) == b"summary"
        assert store.entry_count("eval") == 1
        assert store.entry_count("structure") == 1
        assert store.clear("eval") == 1
        assert store.read("eval", KEY_A) is None
        assert store.read("structure", KEY_A) == b"summary"

    def test_delete_and_counts(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"x" * 100)
        store.write("eval", KEY_B, b"y" * 50)
        assert store.entry_count() == 2
        assert store.total_bytes() == 150
        assert sorted(store.keys("eval")) == sorted([KEY_A, KEY_B])
        assert store.delete("eval", KEY_A) is True
        assert store.delete("eval", KEY_A) is False
        assert store.entry_count() == 1

    def test_clear_report_spans_namespaces(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"x")
        store.write("eval", KEY_B, b"y")
        store.write("structure", KEY_C, b"z")
        assert store.clear_report() == {"eval": 2, "structure": 1}
        assert store.entry_count() == 0

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        for key in (KEY_A, KEY_B, KEY_C):
            store.write("eval", key, b"payload" * 100)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert leftovers == []

    def test_open_store_defaults_to_shared_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        store = open_store()
        assert store.root == tmp_path / "shared"
        explicit = open_store(tmp_path / "explicit", max_mb=1)
        assert explicit.root == tmp_path / "explicit"
        assert explicit.max_bytes == 1024 * 1024


# ------------------------------------------------------- corrupt entries

def _truncate_mid_file(path: Path) -> None:
    """Chop an entry roughly in half — a torn copy or a full disk."""
    data = path.read_bytes()
    assert len(data) > 2
    path.write_bytes(data[:len(data) // 2])


class TestCorruptEntries:
    """A bad entry must log, count ``cache.corrupt``, be deleted, and be
    recomputed — never raise and never be served."""

    def _cached_comparison(self, tmp_path):
        from repro.eval.cache import EvalCache, comparison_key
        from repro.eval.parallel import run_suite_parallel

        cache = EvalCache(store=ShardedStore(tmp_path, max_bytes=None))
        workload = SkewedTasks(num_tasks=24)
        (cold,) = run_suite_parallel(lanes=4, workloads=[workload],
                                     jobs=1, cache=cache)
        key = comparison_key(*_point(workload))
        return cache, workload, key, cold

    def test_truncated_entry_recomputed_not_raised(self, tmp_path, caplog):
        from repro.eval.parallel import run_suite_parallel
        from repro.util.fingerprint import result_stats

        cache, workload, key, cold = self._cached_comparison(tmp_path)
        path = cache._path(key)
        _truncate_mid_file(path)
        with caplog.at_level("WARNING", logger="repro.store"):
            assert cache.get(key) is None  # dropped, not raised
        assert "corrupt" in caplog.text
        assert not path.exists(), "corrupt entry must be deleted"
        assert cache.store.counters.get("cache.corrupt") == 1
        # The sweep recomputes the point and repopulates the entry.
        (again,) = run_suite_parallel(lanes=4,
                                      workloads=[SkewedTasks(num_tasks=24)],
                                      jobs=1, cache=cache)
        assert result_stats(again.delta) == result_stats(cold.delta)
        assert path.exists()

    def test_garbage_bytes_counted_and_dropped(self, tmp_path):
        cache, _workload, key, _cold = self._cached_comparison(tmp_path)
        cache._path(key).write_bytes(b"\x00\xff garbage, not a pickle")
        misses_before = cache.misses
        assert cache.get(key) is None
        assert cache.store.counters.get("cache.corrupt") == 1
        assert cache.misses == misses_before + 1, "corruption counts a miss"


def _point(workload):
    from repro.arch.config import default_baseline_config, default_delta_config

    return (workload, default_delta_config(lanes=4),
            default_baseline_config(lanes=4))


# ------------------------------------------------------------- eviction

class TestEviction:
    def test_budget_enforced_after_writes(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=250)
        for key in (KEY_A, KEY_B, KEY_C):
            store.write("eval", key, bytes(100))
        assert store.total_bytes() <= 250
        assert store.counters.get("cache.evictions") >= 1
        assert store.counters.get("cache.evicted_bytes") >= 100

    def test_least_recently_used_goes_first(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, bytes(100))
        store.write("eval", KEY_B, bytes(100))
        # Age A far into the past; B stays fresh.
        old = time.time() - 3600
        os.utime(store.path_for("eval", KEY_A), (old, old))
        store.max_bytes = 150
        assert store.evict_to_budget() == 1
        assert store.read("eval", KEY_A) is None
        assert store.read("eval", KEY_B) is not None

    def test_read_refreshes_recency(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, bytes(100))
        store.write("eval", KEY_B, bytes(100))
        old = time.time() - 3600
        for key in (KEY_A, KEY_B):
            os.utime(store.path_for("eval", key), (old, old))
        # Touching A through a read makes B the eviction victim.
        assert store.read("eval", KEY_A) is not None
        store.max_bytes = 150
        store.evict_to_budget()
        assert store.read("eval", KEY_A) is not None
        assert store.path_for("eval", KEY_B).exists() is False

    def test_eviction_spans_namespaces(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=150)
        store.write("structure", KEY_A, bytes(100))
        old = time.time() - 3600
        os.utime(store.path_for("structure", KEY_A), (old, old))
        store.write("eval", KEY_B, bytes(100))
        # The older structure entry was evicted to fit the eval entry.
        assert store.total_bytes() <= 150
        assert store.read("structure", KEY_A) is None
        assert store.read("eval", KEY_B) is not None

    def test_uncapped_store_never_evicts(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        for key in (KEY_A, KEY_B, KEY_C):
            store.write("eval", key, bytes(10_000))
        assert store.evict_to_budget() == 0
        assert store.entry_count() == 3

    def test_budget_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert cache_budget_bytes() is None
        assert cache_budget_bytes(2) == 2 * 1024 * 1024
        assert cache_budget_bytes(0) is None  # explicit 0 = uncapped
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
        assert cache_budget_bytes() == int(1.5 * 1024 * 1024)
        assert cache_budget_bytes(3) == 3 * 1024 * 1024  # flag wins
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "not-a-number")
        assert cache_budget_bytes() is None

    def test_eval_cache_respects_env_budget(self, tmp_path, monkeypatch):
        from repro.eval.cache import EvalCache

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.0001")  # ~105 bytes
        cache = EvalCache(tmp_path)
        assert cache.store.max_bytes == 104
        cache.store.write("eval", KEY_A, bytes(400))
        assert cache.store.total_bytes() <= 104


# ------------------------------------------ protected namespaces and TTL GC

class TestProtectedNamespaces:
    """Live job records are never collateral of cache housekeeping."""

    def test_clear_everything_spares_job_records(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"cache")
        store.write("jobs", KEY_B, b"job record")
        assert store.clear() == 1
        assert store.read("eval", KEY_A) is None
        assert store.read("jobs", KEY_B) == b"job record"
        # Naming the protected namespace explicitly still clears it —
        # lifecycle owners may, --clear-cache may not.
        assert store.clear("jobs") == 1
        assert store.read("jobs", KEY_B) is None

    def test_clear_report_excludes_job_records(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("eval", KEY_A, b"cache")
        store.write("jobs", KEY_B, b"job record")
        assert store.clear_report() == {"eval": 1}
        assert store.read("jobs", KEY_B) == b"job record"

    def test_size_cap_never_evicts_job_records(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        store.write("jobs", KEY_A, bytes(100))
        store.write("eval", KEY_B, bytes(100))
        # Make the job record the obvious LRU victim — and still exempt:
        # it is neither a candidate nor counted toward the budget, so the
        # only way back under the 50-byte cap is shedding the eval entry.
        old = time.time() - 3600
        os.utime(store.path_for("jobs", KEY_A), (old, old))
        store.max_bytes = 50
        assert store.evict_to_budget() == 1
        assert store.read("jobs", KEY_A) is not None
        assert store.read("eval", KEY_B) is None

    def test_sweep_aged_deletes_old_spares_young_and_exempt(self, tmp_path):
        store = ShardedStore(tmp_path, max_bytes=None)
        for key in (KEY_A, KEY_B, KEY_C):
            store.write("jobs", key, b"record")
        old = time.time() - 3600
        for key in (KEY_A, KEY_B):
            os.utime(store.path_for("jobs", key), (old, old))
        removed = store.sweep_aged(600, namespace="jobs", exempt={KEY_B})
        assert removed == 1
        assert store.read("jobs", KEY_A) is None       # old: swept
        assert store.read("jobs", KEY_B) == b"record"  # old but exempt
        assert store.read("jobs", KEY_C) == b"record"  # young


# ------------------------------------------------------------ shard locks

class TestShardLock:
    def test_uncontended_acquire_counts_no_wait(self, tmp_path):
        counters = Counters()
        with ShardLock(tmp_path / "ab", counters):
            pass
        assert counters.get("cache.lock_waits") == 0

    def test_contended_acquire_blocks_and_counts(self, tmp_path):
        counters = Counters()
        holder = ShardLock(tmp_path / "ab", counters)
        holder.acquire()
        acquired = threading.Event()

        def contender():
            with ShardLock(tmp_path / "ab", counters):
                acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set(), "contender must block while held"
        holder.release()
        thread.join(timeout=5)
        assert acquired.is_set()
        assert counters.get("cache.lock_waits") == 1

    def test_lock_file_lives_in_shard_dir(self, tmp_path):
        with ShardLock(tmp_path / "cd") as lock:
            assert lock.path == tmp_path / "cd" / ".lock"
            assert lock.path.exists()


# ----------------------------------------------------- counter plumbing

class TestCacheMetrics:
    def test_store_reports_through_a_metrics_bus(self, tmp_path):
        # The bag a store is opened with is the one it adds ``cache.*`` to.
        from repro.eval.cache import EvalCache
        from repro.eval.parallel import run_suite_parallel

        counters = Counters()
        cache = EvalCache(
            store=ShardedStore(tmp_path, max_bytes=None, counters=counters))
        workloads = [SkewedTasks(num_tasks=24)]
        run_suite_parallel(lanes=4, workloads=list(workloads), jobs=1,
                           cache=cache)
        assert counters.snapshot() == (("cache.misses", 1.0),
                                       ("cache.stores", 1.0))
        run_suite_parallel(lanes=4, workloads=list(workloads), jobs=1,
                           cache=cache)
        assert counters.get("cache.hits") == 1
        assert counters.get("cache.misses") == 1


# ----------------------------------------------- multiprocessing stress

#: Shared key set every stress worker draws from — small enough that
#: workers collide on keys constantly (the interesting regime).
STRESS_KEYS = [hashlib.sha256(f"stress-{i}".encode()).hexdigest()
               for i in range(8)]


def _stress_payload(key: str, round_no: int) -> bytes:
    blob = (key + str(round_no)).encode() * 200
    digest = hashlib.sha256(blob).hexdigest()
    return pickle.dumps({"key": key, "digest": digest, "blob": blob})


def _verify_stress_payload(key: str, payload: bytes) -> None:
    entry = pickle.loads(payload)  # raises on truncation/corruption
    assert entry["key"] == key, "payload served under the wrong key"
    assert hashlib.sha256(entry["blob"]).hexdigest() == entry["digest"], \
        "payload bytes corrupted"


def _stress_worker(root: str, worker_id: int, iterations: int,
                   budget: int, errors) -> None:
    """Mixed read/write/evict/clear traffic over one shared store."""
    store = ShardedStore(Path(root), max_bytes=budget)
    rng = random.Random(worker_id)
    try:
        for i in range(iterations):
            key = rng.choice(STRESS_KEYS)
            roll = rng.random()
            if roll < 0.45:
                store.write("stress", key, _stress_payload(key, i))
            elif roll < 0.90:
                payload = store.read("stress", key)
                if payload is not None:
                    _verify_stress_payload(key, payload)
            elif roll < 0.95:
                store.evict_to_budget()
            else:
                store.delete("stress", key)
    except Exception as exc:  # pragma: no cover - only on regression
        errors.put(f"worker {worker_id}: {type(exc).__name__}: {exc}")


class TestConcurrencyStress:
    def test_workers_hammering_one_store_corrupt_nothing(self, tmp_path):
        """N workers × one key set, mixed read/write/evict/delete: every
        read observes a complete, self-consistent payload; the budget
        holds once the dust settles; no worker ever raises."""
        budget = 64 * 1024
        errors = multiprocessing.Queue()
        procs = [multiprocessing.Process(
            target=_stress_worker,
            args=(str(tmp_path), wid, 120, budget, errors))
            for wid in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        assert failures == [], failures
        assert all(p.exitcode == 0 for p in procs)
        # Post-mortem: every surviving entry is complete and consistent.
        store = ShardedStore(tmp_path, max_bytes=budget)
        survivors = 0
        for key in store.keys("stress"):
            payload = store.read("stress", key)
            if payload is not None:
                _verify_stress_payload(key, payload)
                survivors += 1
        assert store.evict_to_budget() == 0, "store already within budget"
        assert store.total_bytes() <= budget
        # No temp-file debris from any writer.
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    def test_parallel_equals_serial_with_coalescing_and_eviction(
            self, tmp_path):
        """The whole stack at once: duplicated points, a cache under a
        budget tight enough to evict, multiple workers — the results must
        stay field-identical to the plain serial path."""
        from repro.eval.cache import EvalCache
        from repro.eval.parallel import run_suite_parallel
        from repro.eval.runner import run_suite
        from repro.util.fingerprint import comparison_fingerprint

        def point_workloads():
            return [SkewedTasks(num_tasks=24),
                    SkewedTasks(num_tasks=24),        # duplicate: coalesces
                    SharedReadTasks(num_tasks=12)]

        serial = run_suite(lanes=4, workloads=point_workloads(), jobs=1)
        counters = Counters()
        cache = EvalCache(store=ShardedStore(tmp_path, max_bytes=1,
                                             counters=counters))
        outcomes: list = []
        parallel = run_suite_parallel(lanes=4, workloads=point_workloads(),
                                      jobs=2, cache=cache, outcomes=outcomes)
        assert [comparison_fingerprint(c) for c in serial] == \
            [comparison_fingerprint(c) for c in parallel]
        assert outcomes[1] == "coalesced"
        assert counters.get("cache.coalesced") == 1
        # Exactly one computation per distinct key reached the pool.
        assert cache.stores == 2
        assert counters.get("cache.evictions") >= 1, \
            "a 1-byte budget must evict"

    def test_coalesced_points_compute_once_without_a_cache(self):
        from repro.eval.parallel import run_suite_parallel
        from repro.util.fingerprint import comparison_fingerprint

        workloads = [SkewedTasks(num_tasks=24), SkewedTasks(num_tasks=24)]
        outcomes: list = []
        results = run_suite_parallel(lanes=4, workloads=workloads, jobs=1,
                                     outcomes=outcomes)
        assert comparison_fingerprint(results[0]) == \
            comparison_fingerprint(results[1])
        assert outcomes == ["ok", "coalesced"]


# ------------------------------------------------------ unified clearing

class TestUnifiedClear:
    def test_cli_clear_cache_clears_both_namespaces(self, tmp_path,
                                                    capsys, monkeypatch):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Seed the store through the real eval path.
        assert cli.main(["eval", "--jobs", "1",
                         "--workloads", "micro-chain"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--jobs", "1", "--clear-cache",
                         "--no-cache",
                         "--workloads", "micro-chain"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert "eval" in out
        store = ShardedStore(tmp_path, max_bytes=None)
        assert store.entry_count() == 0


# ----------------------------------------------------------- cli surface

class TestCliStoreFlags:
    def test_eval_reports_store_metrics_line(self, tmp_path, capsys,
                                             monkeypatch):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli.main(["eval", "--jobs", "1",
                         "--workloads", "micro-chain"]) == 0
        out = capsys.readouterr().out
        assert "store:" in out
        assert "hit rate" in out
        assert "coalesced" in out
        assert cli.main(["eval", "--jobs", "1",
                         "--workloads", "micro-chain"]) == 0
        assert "store: 1 hits / 0 misses (100% hit rate)" in \
            capsys.readouterr().out

    def test_cache_max_mb_flag_caps_the_store(self, tmp_path, capsys,
                                              monkeypatch):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli.main(["eval", "--jobs", "1", "--cache-max-mb", "0.001",
                         "--workloads", "micro-chain",
                         "micro-shared"]) == 0
        store = ShardedStore(tmp_path, max_bytes=None)
        assert store.total_bytes() <= int(0.001 * 1024 * 1024)
        out = capsys.readouterr().out
        assert "evicted" in out


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
