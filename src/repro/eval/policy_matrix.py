"""The policy tournament: every registered policy × the suite × faults.

The scheduler lab (:mod:`repro.sched`) makes dispatch policies pluggable;
this module races them. Each registered policy runs the evaluation suite
twice — fault-free, then under one canned :class:`~repro.sim.faults
.FaultPlan` — always with the opt-in ``sched.*`` counters armed, so
every row carries both ends of the trade-off: raw speedup over the static
baseline, and how gracefully that speedup degrades when a lane fail-stops
mid-run and tasks fault transiently.

The fault-free pass goes through the parallel, cached harness
(:func:`~repro.eval.parallel.run_suite_parallel`). The faulty pass runs
point-by-point in-process instead: a policy that *stalls* or exhausts
recovery under faults is a result (its row records the failing workloads),
not an abort of the tournament.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.cache import EvalCache

from repro.arch.config import default_delta_config
from repro.eval.parallel import run_suite_parallel
from repro.eval.runner import compare, suite_geomean
from repro.machine.session import ExecutionStalled
from repro.sched import policy_names, policy_uses_structure
from repro.sim.faults import FaultPlan, LaneFailure, UnrecoverableFault
from repro.sim.sanitize import ModelInvariantError
from repro.util.stats import geomean
from repro.workloads import get_workload
from repro.workloads.base import Workload
from repro.workloads.registry import workload_names


def canned_fault_plan() -> FaultPlan:
    """The tournament's standard adversity, same for every policy.

    One lane fail-stops at cycle 2000 — early enough to strand queued
    work on every suite workload — plus a 2% transient task-fault rate.
    Fixed seed: all policies face the identical fault schedule, so the
    degradation column compares recovery behaviour, not luck.
    """
    return FaultPlan(lane_failures=(LaneFailure(lane=1, cycle=2000.0),),
                     task_fault_rate=0.02, seed=7)


@dataclass(frozen=True)
class PolicyOutcome:
    """One tournament row: a policy's suite-level scores.

    Speedups are geomean Delta-vs-static over the workload set; counter
    columns aggregate the fault-free pass (``pool_peak`` is the maximum
    across workloads, the rest are sums). ``failures`` lists workloads the
    policy could not finish under the fault plan — those points are
    excluded from ``faulty_speedup`` rather than poisoning it.
    """

    policy: str
    uses_structure: bool
    speedup: float
    faulty_speedup: float
    pool_peak: float
    steal_attempts: float
    steal_hits: float
    inversions: float
    failures: tuple[str, ...] = ()

    @property
    def degradation(self) -> float:
        """Fraction of the fault-free speedup lost under the fault plan
        (0.08 = 8% slower relative to its own clean run)."""
        if not (self.speedup > 0.0) or not (self.faulty_speedup > 0.0):
            return float("nan")
        return 1.0 - self.faulty_speedup / self.speedup


def run_policy_matrix(lanes: int = 8,
                      workloads: Optional[Sequence[Workload]] = None,
                      policies: Optional[Sequence[str]] = None,
                      jobs: Optional[int] = None,
                      timeout: Optional[float] = None,
                      cache: Optional["EvalCache"] = None,
                      sanitize: bool = False,
                      plan: Optional[FaultPlan] = None,
                      verify: bool = True) -> list[PolicyOutcome]:
    """Race every policy (registry order) and return one row each.

    ``policies`` defaults to the full registry; ``plan`` to
    :func:`canned_fault_plan`. ``workloads`` defaults to the *entire*
    workload registry — micro/ext stressors included, unlike the F1
    suite — because the tournament wants scheduling diversity (skew,
    chains, trees, shared inputs), not cross-run comparability.
    ``cache`` only serves the fault-free pass (``sched_stats`` is part
    of the config, so tournament entries never collide with ordinary
    eval results); the faulty pass always simulates. ``sanitize`` arms
    the model sanitizer on both passes — under faults a sanitizer
    violation counts as that workload failing, not an abort.
    """
    workloads = (list(workloads) if workloads is not None
                 else [get_workload(n) for n in workload_names()])
    names = tuple(policies) if policies is not None else policy_names()
    plan = plan if plan is not None else canned_fault_plan()

    outcomes = []
    for name in names:
        config = (default_delta_config(lanes=lanes)
                  .with_policy(name).with_sched_stats(True))
        if sanitize:
            config = config.with_sanitize(True)
        clean = run_suite_parallel(lanes=lanes, workloads=workloads,
                                   jobs=jobs, verify=verify,
                                   timeout=timeout, cache=cache,
                                   delta_config=config)

        faulty_config = config.with_faults(plan)
        faulty_speedups: list[float] = []
        failures: list[str] = []
        for workload in workloads:
            try:
                point = compare(workload, faulty_config, verify=verify)
            except (ExecutionStalled, UnrecoverableFault,
                    ModelInvariantError) as exc:
                failures.append(f"{workload.name}:{type(exc).__name__}")
                continue
            faulty_speedups.append(point.speedup)

        delta = [c.delta.counters for c in clean]
        outcomes.append(PolicyOutcome(
            policy=name,
            uses_structure=policy_uses_structure(name),
            speedup=suite_geomean(clean),
            faulty_speedup=(geomean(faulty_speedups)
                            if faulty_speedups else float("nan")),
            pool_peak=max((c.get("sched.pool_peak") for c in delta),
                          default=0.0),
            steal_attempts=sum(c.get("sched.steal_attempts")
                               for c in delta),
            steal_hits=sum(c.get("sched.steal_hits") for c in delta),
            inversions=sum(c.get("sched.priority_inversions")
                           for c in delta),
            failures=tuple(failures)))
    return outcomes


def tournament_winner(outcomes: Sequence[PolicyOutcome]) -> PolicyOutcome:
    """The row with the best fault-free geomean speedup."""
    if not outcomes:
        raise ValueError("empty tournament: no policy outcomes")
    return max(outcomes, key=lambda o: o.speedup)
