"""Run one workload on both machines and compare.

This is the core evaluation loop: build a fresh program for each machine
(kernels mutate state), simulate, verify functional results against the
workload's reference implementation, and return both run results.

Sweeps go through :func:`run_suite`, which can fan points out over worker
processes and serve repeats from the on-disk result cache (see
:mod:`repro.eval.parallel` and :mod:`repro.eval.cache`); the serial path
here remains the reference semantics that the parallel path must match
field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.cache import EvalCache
    from repro.sim.faults import FaultPlan

from repro.arch.config import (
    MachineConfig,
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.graph.analyses import critical_path
from repro.machine.result import RunResult
from repro.sched import policy_uses_structure
from repro.util.stats import geomean
from repro.workloads import all_workloads
from repro.workloads.base import Workload


@dataclass
class Comparison:
    """Delta vs static results for one workload.

    ``parallelism`` is the program's inherent parallelism T1/T∞
    (:mod:`repro.graph`), read off the task graph the static baseline
    recovered; it gives reports the critical-path speedup bound. It is
    deliberately outside the comparison fingerprint: it is an *analysis*
    of the program, not a measured statistic.
    """

    workload: str
    delta: RunResult
    static: RunResult
    parallelism: float

    @property
    def speedup(self) -> float:
        """Delta's speedup over the static-parallel design."""
        if self.delta.cycles == 0:
            return float("inf")
        return self.static.cycles / self.delta.cycles

    @property
    def traffic_ratio(self) -> float:
        """Static DRAM bytes / Delta DRAM bytes (>1 = Delta saves)."""
        if self.delta.dram_bytes == 0:
            return float("inf")
        return self.static.dram_bytes / self.delta.dram_bytes

    @property
    def lanes(self) -> int:
        """Lane count both machines ran with."""
        return len(self.delta.lane_busy)

    @property
    def cp_bound(self) -> float:
        """Critical-path speedup bound min(L, T1/T∞).

        An upper bound on *any* dynamic schedule's speedup at this lane
        count; the measured speedup should sit below it.
        """
        return min(float(self.lanes), self.parallelism)

    def row(self) -> list:
        """Table row used by several reports."""
        return [self.workload, f"{self.delta.cycles:,.0f}",
                f"{self.static.cycles:,.0f}", f"{self.speedup:.2f}x",
                f"{self.delta.imbalance_cv:.3f}",
                f"{self.static.imbalance_cv:.3f}"]

    def row_with_bound(self) -> list:
        """:meth:`row` plus the critical-path bound column (appended last
        so golden-file parsers keyed on the first columns keep working)."""
        return self.row() + [f"{self.cp_bound:.2f}x"]


#: Count of simulations run in this process — each compare() simulates the
#: workload on both machines. Tests use this to assert that cache hits
#: skip simulation entirely.
_simulations = 0


def simulation_count() -> int:
    """How many compare() simulations this process has executed."""
    return _simulations


def compare(workload: Workload,
            delta_config: Optional[MachineConfig] = None,
            static_config: Optional[MachineConfig] = None,
            verify: bool = True) -> Comparison:
    """Simulate one workload on Delta and on the static baseline.

    A derived static config inherits ``delta_config.sanitize`` and
    ``delta_config.faults``, so one flag (or one fault plan) covers the
    whole comparison.
    """
    global _simulations
    delta_config = delta_config or default_delta_config()
    if static_config is None:
        static_config = default_baseline_config(
            lanes=delta_config.lanes, seed=delta_config.seed)
        if delta_config.sanitize:
            static_config = static_config.with_sanitize(True)
        if delta_config.faults is not None:
            static_config = static_config.with_faults(delta_config.faults)

    _simulations += 1
    static = StaticParallel(static_config)
    # The static baseline recovers its own program's structure; Delta's
    # structure-aware policies read their hints from that same graph
    # (hints key on (type, depth), so they fit Delta's fresh build), and
    # the comparison carries its critical-path bound.
    graph = static.recover(workload.build_program())
    sched_hints = None
    if policy_uses_structure(delta_config.dispatch.policy):
        from repro.sched.structure import hints_from_graph

        sched_hints = hints_from_graph(graph)
    delta_result = Delta(delta_config).run(workload.build_program(),
                                           sched_hints=sched_hints)
    static_result = static.run(graph)
    if verify:
        workload.check(delta_result.state)
        workload.check(static_result.state)
    return Comparison(workload.name, delta_result, static_result,
                      critical_path(graph).parallelism)


def run_suite(lanes: int = 8,
              workloads: Optional[Sequence[Workload]] = None,
              verify: bool = True,
              jobs: Optional[int] = None,
              timeout: Optional[float] = None,
              cache: Optional["EvalCache"] = None,
              sanitize: bool = False,
              faults: Optional["FaultPlan"] = None,
              cancel=None,
              on_result=None) -> list[Comparison]:
    """Compare every evaluation workload at the given lane count.

    ``jobs`` > 1 fans points out over worker processes (``jobs=None``
    honours the ``REPRO_JOBS`` environment variable, defaulting to the
    serial path); ``cache`` serves repeated points from disk. Both paths
    return field-identical results — see :mod:`repro.eval.parallel`.
    ``sanitize`` runs every point under the model sanitizer (identical
    results, plus invariant checking); ``faults`` injects the given
    :class:`~repro.sim.faults.FaultPlan` into both machines of every point.
    ``cancel`` (a ``threading.Event``) stops the sweep cooperatively and
    ``on_result(index, comparison, outcome)`` streams per-point progress;
    either one routes through the parallel harness, which owns those
    semantics.
    """
    from repro.eval.parallel import resolve_jobs, run_suite_parallel

    workloads = list(workloads) if workloads is not None else all_workloads()
    if (resolve_jobs(jobs) != 1 or cache is not None
            or cancel is not None or on_result is not None):
        return run_suite_parallel(lanes=lanes, workloads=workloads,
                                  jobs=jobs, verify=verify, timeout=timeout,
                                  cache=cache, sanitize=sanitize,
                                  faults=faults, cancel=cancel,
                                  on_result=on_result)
    delta_config = default_delta_config(lanes=lanes)
    if sanitize:
        delta_config = delta_config.with_sanitize(True)
    if faults is not None:
        delta_config = delta_config.with_faults(faults)
    return [compare(w, delta_config, verify=verify) for w in workloads]


def suite_geomean(comparisons: Sequence[Comparison]) -> float:
    """Geomean speedup across a comparison set."""
    return geomean([c.speedup for c in comparisons])
