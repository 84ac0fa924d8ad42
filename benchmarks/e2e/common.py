"""Shared pieces of the end-to-end benchmark.

Paths, hermetic child environments, seeded workload construction,
result digests, percentiles and memory readings. Nothing here imports
``repro`` at module level: the launcher (``run.py`` without ``--child``)
never imports the simulator, so a checkout without ``src/`` fails fast.
"""

from __future__ import annotations

import hashlib
import heapq
import inspect
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Every file the benchmark writes lives under here (stores, logs, results,
#: traces); it is ignored by git and stores are removed after each run.
WORKDIR = ROOT / ".e2e-bench"

WORKLOADS = ("sweep-cold", "sweep-warm", "sweep-pool", "serve-mix")


@dataclass(frozen=True)
class Plan:
    """How much work one run does. ``FULL`` is the benchmark; ``SMOKE``
    runs the same code paths on a fraction of the work, for the tests."""

    #: Registered workload names in one sweep slice; ``None`` = all 18.
    workloads: tuple | None = None
    sweep_lanes: tuple = (2, 8)
    pool_lanes: tuple = (4, 16)
    pool_policies: tuple = ("work-aware", "critical-path",
                            "block-partition", "steal-tuned")
    pool_jobs: int = 2
    #: Fresh launches whose spawn-to-ready time is ``setup_s``.
    setup_launches: int = 5
    #: Warm passes per traced replay.
    trace_warm_passes: int = 20
    #: Points of the first pool slice re-run serially as a check.
    pool_checked_points: int = 4
    serve_clients: int = 2
    #: Jobs per client in the shortened (traced) serve mix.
    serve_trace_jobs: int = 40
    #: Leading jobs per client folded into the serve digest.
    serve_digest_jobs: int = 20
    #: Cold specs re-computed with a direct ``compare()`` after the run.
    serve_checked_specs: int = 20


FULL = Plan()
SMOKE = Plan(workloads=("micro-chain", "micro-skewed", "micro-tree",
                        "spmv"),
             pool_lanes=(4,), pool_policies=("work-aware", "critical-path"),
             setup_launches=2, trace_warm_passes=2,
             pool_checked_points=2, serve_trace_jobs=6,
             serve_digest_jobs=3, serve_checked_specs=3)


def load_benchmark() -> dict:
    """The metric declarations in ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


def hermetic_env() -> dict:
    """The environment every child process runs with.

    All ``REPRO_*`` switches (jobs, sanitizer, faults, engine, cache root
    and size cap) are scrubbed so a caller's shell cannot change what is
    measured; ``repro`` is imported from this checkout's ``src/`` and
    temporary files stay under :data:`WORKDIR`.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work_root())
    return env


def work_root() -> Path:
    path = WORKDIR / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def work_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORKDIR` (never ``.repro-cache/``)."""
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work_root()))


def run_info() -> dict:
    """Provenance recorded in every result."""
    from repro.sim.fastengine import engine_name
    from repro.store.keys import code_version

    return {"engine": engine_name(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "code_version": code_version()[:16]}


# -- workloads ---------------------------------------------------------------

def workload_classes(names) -> list:
    """The class behind each registered workload name, in order."""
    from repro.workloads.registry import get_workload, workload_names

    return [type(get_workload(name)) for name in (names or workload_names())]


def build_workloads(classes, seed: int | None) -> list:
    """One instance per class; a class that takes ``seed=`` gets ``seed``,
    unless it is None (the registry's default inputs)."""
    return [cls(seed=seed) if seed is not None
            and "seed" in inspect.signature(cls).parameters
            else cls() for cls in classes]


def digest(fingerprints) -> str:
    """Stable hash of per-point fingerprints, in order."""
    h = hashlib.sha256()
    for fingerprint in fingerprints:
        h.update(fingerprint.encode())
    return h.hexdigest()[:16]


# -- host speed --------------------------------------------------------------

#: Rate (iterations per second) of :func:`_reference_loop` that defines
#: host speed 1.0: its rate on an idle 2-vCPU Xeon VM under Python 3.11,
#: so that reference-host times read like wall times on that machine.
REFERENCE_RATE = 1060.0


def _reference_loop() -> int:
    """Fixed pure-Python work shaped like the simulator's: an event heap
    with callbacks, dict updates, small objects and string joins. It uses
    no ``repro`` code, so no change to ``repro`` can move its speed."""
    queue: list = []
    counts: dict = {}

    def fire(arg: int) -> None:
        counts[arg] = counts.get(arg, 0) + 1

    for i in range(1500):
        heapq.heappush(queue, (float((i * 7919) % 997), i, (fire, i & 7)))
        if len(queue) > 32:
            _, _, (callback, arg) = heapq.heappop(queue)
            callback(arg)
    return len("|".join(str(i) for i in range(200))) + sum(counts.values())


def _loop_rate(seconds: float) -> float:
    """Median rate of :func:`_reference_loop` over ``seconds``."""
    rates = []
    end = time.perf_counter() + seconds
    while not rates or time.perf_counter() < end:
        start = time.perf_counter()
        _reference_loop()
        rates.append(1.0 / (time.perf_counter() - start))
    return statistics.median(rates)


def host_speed(seconds: float = 0.05, procs: int = 1) -> float:
    """This host's speed right now relative to the reference host: the
    rate of :func:`_reference_loop` over ``seconds``, divided by
    :data:`REFERENCE_RATE`, averaged over ``procs`` processes running it
    at once (as many as the measured work keeps busy). Shared machines
    drift by up to 2x over minutes; a time multiplied by the speed
    around it (reference-host seconds) drifts far less."""
    if procs == 1:
        return _loop_rate(seconds) / REFERENCE_RATE
    # fork, not spawn: a spawned interpreter would start up inside the
    # sample. The children only run _reference_loop, which takes no lock
    # that another thread of this process could hold.
    pool = multiprocessing.get_context("fork").Pool(procs)
    try:
        rates = pool.map(_loop_rate, [seconds] * procs)
    finally:
        pool.close()
        pool.join()
    return statistics.mean(rates) / REFERENCE_RATE


# -- statistics --------------------------------------------------------------

def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
