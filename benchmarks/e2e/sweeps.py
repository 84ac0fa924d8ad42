"""The three sweep workloads: ``sweep-cold``, ``sweep-warm``, ``sweep-pool``.

Each sweep request ("job") is one ``run_suite_parallel`` call over every
workload of the slice at one (lanes, policy), with workloads built fresh
for the call, as a caller of the harness does. Job ``k`` of a run seeded
``seed`` uses ``MachineConfig.seed = seed + k``, so every point has its
own cache key, and cold and pool jobs also build workload inputs with
``seed + k``: a run averages over as many input draws as it runs jobs.
A slice is one pass over the (lanes, policy) grid. The first slice is
the same on every run of a seed: its digest, geomean speedup and traced
replay are compared across runs.
"""

from __future__ import annotations

import random
import shutil
import time

from common import (
    build_workloads,
    digest,
    host_speed,
    p50,
    p90,
    peak_rss_mb,
    work_dir,
    workload_classes,
)
from repro.arch.config import default_baseline_config, default_delta_config
from repro.eval.cache import EvalCache, comparison_key
from repro.eval.parallel import run_suite_parallel
from repro.eval.runner import compare
from repro.store.keys import code_version
from repro.util.fingerprint import comparison_fingerprint
from repro.util.stats import geomean

import spans

#: Per-layer metrics only the serve-mix workload produces.
NO_SERVE = {"serve.submit_ms_p50": 0.0, "serve.first_point_ms_p50": 0.0,
            "serve.queue_wait_ms_mean": 0.0, "serve.cached_frac": 0.0,
            "serve.shed": 0.0}


class Tally:
    """Jobs of one measured phase: points, seconds, and the host speed
    around each, from calibrations taken between jobs."""

    def __init__(self, procs: int = 1, sample_s: float = 0.05) -> None:
        self.procs = procs
        self.sample_s = sample_s
        self.jobs: list = []      # [points, seconds, calibration index]
        self.speeds = [host_speed(sample_s, procs)]
        self.busy_s = 0.0
        self.points = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Read once the first slice is done: later slices repeat its kind
        #: of work, and how many fit in the run depends on host speed.
        self.peak_rss_mb = 0.0

    def add(self, points: int, seconds: float, failed: int) -> None:
        self.jobs.append([points, seconds, len(self.speeds) - 1])
        self.busy_s += seconds
        self.points += points
        self.failed += failed

    def calibrate(self) -> None:
        """Sample host speed; jobs since the last sample take the mean of
        the two samples around them."""
        self.speeds.append(host_speed(self.sample_s, self.procs))

    def reference_seconds(self) -> list:
        """Each job's seconds, scaled to the reference host."""
        speeds = self.speeds + [self.speeds[-1]]
        return [seconds * (speeds[i] + speeds[i + 1]) / 2
                for _points, seconds, i in self.jobs]

    def metrics(self) -> dict:
        ref = self.reference_seconds()
        job_ms = [s * 1e3 for s in ref]
        return {"points_per_s": self.points / sum(ref),
                "jobs_per_s": len(ref) / sum(ref),
                "latency_p50_ms": p50(job_ms),
                "latency_p90_ms": p90(job_ms),
                "peak_rss_mb": self.peak_rss_mb}


class Sweep:
    """One sweep workload: a (lanes, policy) grid of jobs per slice, run
    by ``pool_jobs`` processes, optionally against a result cache."""

    name = "sweep"
    lanes: tuple = ()
    policies: tuple = ("work-aware",)
    pool_jobs = 1
    cached = True
    #: Whether job ``k`` draws workload inputs with ``seed + k`` (else the
    #: registry's default inputs).
    seeded_inputs = True

    def __init__(self, plan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self.cache_dirs: list = []

    # -- shared machinery ------------------------------------------------

    def setup(self, for_trace: bool = False) -> None:
        self.classes = workload_classes(self.plan.workloads)
        code_version()  # hashed once per process, before the first key
        self.cache = self.fresh_cache() if self.cached else None

    def fresh_cache(self):
        path = work_dir(f"{self.name}-")
        self.cache_dirs.append(path)
        return EvalCache(path)

    def close(self) -> None:
        for path in self.cache_dirs:
            shutil.rmtree(path, ignore_errors=True)

    def grid(self) -> list:
        return [(lanes, policy) for policy in self.policies
                for lanes in self.lanes]

    def job(self, k: int):
        """Job ``k``'s fresh workloads and Delta configuration."""
        lanes, policy = self.grid()[k % len(self.grid())]
        workloads = build_workloads(
            self.classes, self.seed + k if self.seeded_inputs else None)
        config = default_delta_config(lanes=lanes, seed=self.seed + k)
        return workloads, config.with_policy(policy)

    def run_job(self, k: int, cache, jobs: int, tally: Tally | None = None,
                outcomes=None) -> list:
        """One sweep request; returns its comparisons (None on failure)."""
        start = time.perf_counter()
        workloads, config = self.job(k)
        try:
            results = run_suite_parallel(
                lanes=config.lanes, workloads=workloads, jobs=jobs,
                cache=cache, delta_config=config, outcomes=outcomes)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            results = [None] * len(workloads)
            if tally is not None:
                tally.errors.append(f"{self.name} job {k}: "
                                    f"{type(exc).__name__}: {exc}")
        if tally is not None:
            tally.add(len(results), time.perf_counter() - start,
                      sum(r is None for r in results))
        return results

    def run_slice(self, first_job: int, cache, jobs: int,
                  tally: Tally | None = None) -> list:
        """Jobs ``first_job`` onwards, once over the grid; with a tally,
        host speed is sampled after each job."""
        results = []
        for k in range(first_job, first_job + len(self.grid())):
            results += self.run_job(k, cache, jobs, tally)
            if tally is not None:
                tally.calibrate()
        return results

    def measure(self, seconds: float) -> dict:
        tally = Tally(self.pool_jobs)
        first = _summary(self.run_slice(0, self.cache, self.pool_jobs, tally))
        tally.peak_rss_mb = peak_rss_mb()
        k = len(self.grid())
        while tally.busy_s < seconds:
            self.run_slice(k, self.cache, self.pool_jobs, tally)
            k += len(self.grid())
        if None in first:
            return self.outcome(tally, [], {})
        return self.outcome(tally, self.check(first), _exact(first))

    def outcome(self, tally: Tally, problems: list, exact: dict) -> dict:
        """``problems`` are failed checks; failed jobs are in the tally."""
        failed = tally.failed + len(problems)
        return {"metrics": tally.metrics(), "attempted": tally.points,
                "failed": failed, "correct": failed == 0, "exact": exact,
                "problems": (tally.errors + problems)[:10],
                "samples": {"jobs": tally.jobs, "speeds": tally.speeds}}

    def check(self, first: list) -> list:
        return []

    # -- traced pass -----------------------------------------------------

    def replay(self, problems: list):
        """The traced work: the seed's first slice, serially, into a fresh
        cache. Returns (cache written, comparisons, points delivered,
        seconds)."""
        cache = self.fresh_cache() if self.cached else None
        start = time.perf_counter()
        results = self.run_slice(0, cache, 1)
        return cache, results, len(results), time.perf_counter() - start

    def trace(self, recorder, trace_path) -> dict:
        """Replay untraced, then traced; the digests must agree."""
        problems: list = []
        # Warm-up first: process-wide caches (the mapper's, lazy imports)
        # fill here, so the untraced and traced replays compare fairly.
        self.replay(problems)
        _, plain, _, plain_s = self.replay(problems)
        uninstall = spans.install(recorder)
        try:
            cache, traced, points, traced_s = self.replay(problems)
        finally:
            uninstall()
        if None in plain or None in traced:
            raise RuntimeError(f"{self.name}: a replayed point failed")
        exact = _exact(_summary(traced))
        if _exact(_summary(plain)) != exact:
            problems.append("traced replay differs from untraced")
        metrics = spans.layer_metrics(recorder, traced_s)
        metrics.update(NO_SERVE)
        metrics.update({
            "trace.wall_s": traced_s,
            "trace.untraced_wall_s": plain_s,
            "trace_overhead_frac": traced_s / plain_s - 1.0,
            "eval.points": points,
            "eval.pool_efficiency": 0.0,
            "store.bytes_written": 0 if cache is None else store_bytes(
                cache.root),
            "arch.dram_bytes": sum(c.delta.dram_bytes + c.static.dram_bytes
                                   for c in traced),
            "arch.noc_bytes": sum(c.delta.noc_bytes + c.static.noc_bytes
                                  for c in traced),
            "sim.speedup_geomean": exact["speedup_geomean"],
        })
        spans.write_chrome_trace(recorder, trace_path, self.name)
        return {"metrics": metrics, "attempted": points,
                "failed": len(problems), "correct": not problems,
                "exact": exact, "problems": problems[:10]}


def _summary(results: list) -> list:
    """(fingerprint, speedup) per comparison; None for a failed point."""
    return [None if c is None else (comparison_fingerprint(c), c.speedup)
            for c in results]


def _exact(summary: list) -> dict:
    """What must repeat exactly on every run of a seed."""
    return {"digest": digest(fingerprint for fingerprint, _ in summary),
            "speedup_geomean": geomean([speedup for _, speedup in summary])}


def store_bytes(root) -> int:
    """Bytes of result entries under a store root."""
    return sum(p.stat().st_size for p in (root / "eval").rglob("*.pkl"))


class SweepCold(Sweep):
    """Serial sweep into a fresh cache: the DES, verification and the
    store's write path do the work."""

    name = "sweep-cold"

    def __init__(self, plan, seed: int) -> None:
        super().__init__(plan, seed)
        self.lanes = plan.sweep_lanes

    def check(self, first: list) -> list:
        """Every point of the first slice reads back from the store with
        the fingerprint it was computed with."""
        problems = []
        for k in range(len(self.grid())):
            workloads, config = self.job(k)
            static = default_baseline_config(lanes=config.lanes,
                                             seed=config.seed)
            for w, (fingerprint, _) in zip(workloads,
                                           first[k * len(workloads):]):
                hit = self.cache.get(comparison_key(w, config, static))
                if hit is None or comparison_fingerprint(hit) != fingerprint:
                    problems.append(f"store read-back differs: {w.name} "
                                    f"job {k}")
        return problems


class SweepWarm(Sweep):
    """Repeated sweeps of the first slice's keys, filled during set-up:
    every point is a cache hit and the DES does no work. The workloads
    keep the registry's default inputs, as ``repro serve`` builds them:
    regenerating inputs is most of a hit's cost, and drawing them anew
    per seed would make the run-to-run spread measure the input
    generator rather than the hit path."""

    name = "sweep-warm"
    seeded_inputs = False

    def __init__(self, plan, seed: int) -> None:
        super().__init__(plan, seed)
        self.lanes = plan.sweep_lanes

    def setup(self, for_trace: bool = False) -> None:
        super().setup()
        self.fill = self.run_slice(0, self.cache, self.plan.pool_jobs)
        if None in self.fill:
            raise RuntimeError("sweep-warm: the cache fill failed")
        self.fill_fingerprints = [comparison_fingerprint(c)
                                  for c in self.fill]

    def passes(self, count: int, tally: Tally | None, problems: list) -> None:
        """``count`` sweeps over the filled keys; each hit is checked
        against the fill outside the timed calls."""
        for _ in range(count):
            outcomes: list = []
            results = []
            for k in range(len(self.grid())):
                job_outcomes: list = []
                results += self.run_job(k, self.cache, 1, tally,
                                        job_outcomes)
                outcomes += job_outcomes
            got = [None if c is None else comparison_fingerprint(c)
                   for c in results]
            if got != self.fill_fingerprints or set(outcomes) != {"cached"}:
                problems.append(f"warm pass differs from the fill "
                                f"(outcomes {sorted(set(outcomes))})")

    def measure(self, seconds: float) -> dict:
        # Passes are short, so host speed is sampled briefly after each.
        tally = Tally(sample_s=0.01)
        problems: list = []
        while tally.busy_s < seconds:
            self.passes(1, tally, problems)
            tally.calibrate()
            tally.peak_rss_mb = tally.peak_rss_mb or peak_rss_mb()
        return self.outcome(tally, problems, _exact(_summary(self.fill)))

    def replay(self, problems: list):
        start = time.perf_counter()
        self.passes(self.plan.trace_warm_passes, None, problems)
        return (None, self.fill,  # hits only: nothing is written
                self.plan.trace_warm_passes * len(self.fill),
                time.perf_counter() - start)


class SweepPool(Sweep):
    """The fault-free policy matrix over a two-process pool, no cache:
    pool start-up, IPC and the duplicate structure recoveries of the
    structure-aware policies show here."""

    name = "sweep-pool"
    cached = False

    def __init__(self, plan, seed: int) -> None:
        super().__init__(plan, seed)
        self.lanes = plan.pool_lanes
        self.policies = plan.pool_policies
        self.pool_jobs = plan.pool_jobs

    def check(self, first: list) -> list:
        """Sampled points of the first slice equal a serial compare()."""
        problems = []
        rng = random.Random(f"sweep-pool:{self.seed}")
        width = len(first) // len(self.grid())
        for index in sorted(rng.sample(range(len(first)),
                                       self.plan.pool_checked_points)):
            workloads, config = self.job(index // width)
            workload = workloads[index % width]
            serial = compare(workload, config)
            if comparison_fingerprint(serial) != first[index][0]:
                problems.append(f"pool result differs from serial: "
                                f"{workload.name} lanes={config.lanes} "
                                f"{config.dispatch.policy}")
        return problems

    def trace(self, recorder, trace_path) -> dict:
        """Also run the first slice in the pool: its digest must equal the
        serial ones, and its wall time gives the pool efficiency."""
        start = time.perf_counter()
        pooled = self.run_slice(0, None, self.pool_jobs)
        pool_s = time.perf_counter() - start
        out = super().trace(recorder, trace_path)
        if None in pooled or _exact(_summary(pooled)) != out["exact"]:
            out["problems"].append("pool slice differs from serial")
            out["failed"] += 1
            out["correct"] = False
        metrics = out["metrics"]
        metrics["eval.pool_efficiency"] = metrics["trace.untraced_wall_s"] / (
            self.pool_jobs * pool_s)
        return out


SWEEPS = {cls.name: cls for cls in (SweepCold, SweepWarm, SweepPool)}
