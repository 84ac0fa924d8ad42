"""Deterministic fault injection and the recovery contract (the fault plan).

TaskStream's pitch is that recovered program structure lets the hardware
make better *dynamic* decisions; the same structure is what makes recovery
cheap when resources fail.  This module is the fault side of that claim: a
seeded, declarative :class:`FaultPlan` describes which faults a run should
suffer, and a :class:`FaultInjector` turns the plan into deterministic
per-event decisions that the execution models consult at well-defined
points.  The recovery *policies* live in the runtimes (dispatcher
re-dispatch, stream replay, multicast refetch, DRAM spike absorption);
this module only decides *when* a fault strikes and *when* the retry
budget is exhausted.

Fault kinds:

- **lane fail-stop** — ``LaneFailure(lane, cycle)``: the lane quiesces its
  in-flight task and goes dark at the given cycle; its queued work is
  re-dispatched onto surviving lanes.
- **transient task faults** — with probability ``task_fault_rate`` a task's
  execution dies mid-flight and is re-executed (timing-wise) after a
  cycle-denominated backoff.
- **NoC packet drop/corruption** — with probability ``noc_drop_rate`` a
  message is dropped at the link level and retransmitted; the same rate
  corrupts pipelined stream chunks end-to-end (replayed from the last
  acknowledged chunk) and multicast deliveries (refetched for exactly the
  dropped lanes, driven by the sharing set).
- **DRAM delay spikes** — with probability ``dram_spike_rate`` a DRAM
  response is delayed by ``dram_spike_cycles`` extra cycles; a spike at or
  beyond ``dram_timeout_cycles`` trips the memory watchdog.

Determinism contract: every decision draws from per-subsystem
:class:`~repro.util.rng.DeterministicRng` streams forked from the plan
seed, in simulation order — the DES itself is deterministic, so the same
(plan, config, workload) triple reproduces the same degraded run
bit-for-bit.  Decisions are *never* keyed on ``task_id`` (process-global,
not stable across runs).  With no plan the runtimes hold a shared
:data:`NULL_INJECTOR` whose ``enabled`` flag is False: no randomness is
consumed, no counters are written, no events are scheduled, and result
fingerprints are bit-identical to a fault-free build.

Exhausted retries raise :class:`UnrecoverableFault` naming the fault kind,
task, lane, and cycle — mirroring
:class:`~repro.sim.sanitize.ModelInvariantError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.util.rng import DeterministicRng
from repro.util.validate import check_in_range, check_non_negative

__all__ = [
    "LaneFailure",
    "RetryPolicy",
    "FaultPlan",
    "UnrecoverableFault",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_INJECTOR",
    "env_fault_plan",
]


class UnrecoverableFault(RuntimeError):
    """A fault survived every recovery attempt the plan allows.

    Attributes identify the loss precisely: ``fault`` (the fault kind,
    e.g. ``transient-task-fault`` or ``lane-fail-stop``), the affected
    ``task`` name, ``lane`` id and ``cycle`` — the same diagnostic shape
    as :class:`~repro.sim.sanitize.ModelInvariantError`.
    """

    def __init__(self, fault: str, message: str, *,
                 task: Optional[str] = None,
                 lane: Optional[int] = None,
                 cycle: Optional[float] = None) -> None:
        self.fault = fault
        self.task = task
        self.lane = lane
        self.cycle = cycle
        context = []
        if task is not None:
            context.append(f"task={task}")
        if lane is not None:
            context.append(f"lane={lane}")
        if cycle is not None:
            context.append(f"cycle={cycle:,.0f}")
        text = f"[{fault}] {message}"
        if context:
            text += f" ({', '.join(context)})"
        super().__init__(text)


@dataclass(frozen=True)
class LaneFailure:
    """One scheduled lane fail-stop: ``lane`` goes dark at ``cycle``."""

    lane: int
    cycle: float

    def __post_init__(self) -> None:
        check_non_negative("lane", self.lane)
        check_non_negative("cycle", self.cycle)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution: up to ``max_attempts`` tries per unit of
    recovery, each backed off by ``backoff_cycles * attempt`` cycles."""

    max_attempts: int = 3
    backoff_cycles: float = 64.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        check_non_negative("backoff_cycles", self.backoff_cycles)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded description of the faults a run suffers.

    Frozen and tuple-valued so it hashes and ``repr``s stably — the eval
    cache keys entries by the config repr, and two identical plans must be
    the same cache point.
    """

    #: Scheduled fail-stops, applied to both runtimes.
    lane_failures: tuple[LaneFailure, ...] = ()
    #: Per-task-execution probability of a transient mid-flight fault.
    task_fault_rate: float = 0.0
    #: Per-message drop probability (links, stream chunks, multicasts).
    noc_drop_rate: float = 0.0
    #: Per-request probability of a DRAM response delay spike.
    dram_spike_rate: float = 0.0
    #: Extra cycles a spiked DRAM response is delayed by.
    dram_spike_cycles: float = 500.0
    #: Memory watchdog: a spike this long (or longer) is unrecoverable.
    dram_timeout_cycles: float = 1e6
    #: Bounded-retry policy shared by all recovery paths.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seed for the injector's forked decision streams.
    seed: int = 0

    def __post_init__(self) -> None:
        check_in_range("task_fault_rate", self.task_fault_rate, 0.0, 1.0)
        check_in_range("noc_drop_rate", self.noc_drop_rate, 0.0, 1.0)
        check_in_range("dram_spike_rate", self.dram_spike_rate, 0.0, 1.0)
        check_non_negative("dram_spike_cycles", self.dram_spike_cycles)
        check_non_negative("dram_timeout_cycles", self.dram_timeout_cycles)
        object.__setattr__(self, "lane_failures",
                           tuple(self.lane_failures))

    def is_empty(self) -> bool:
        """True when the plan injects nothing — the fault-free contract:
        an empty plan must be bit-identical to ``faults=None``."""
        return (not self.lane_failures
                and self.task_fault_rate == 0.0
                and self.noc_drop_rate == 0.0
                and self.dram_spike_rate == 0.0)

    # -- JSON round-trip ----------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict form, ``json.dump``-able (see docs/faults.md)."""
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Build a plan from the dict form; unknown keys are rejected."""
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        kwargs = dict(data)
        if "lane_failures" in kwargs:
            kwargs["lane_failures"] = tuple(
                LaneFailure(**f) for f in kwargs["lane_failures"])
        if "retry" in kwargs:
            kwargs["retry"] = RetryPolicy(**kwargs["retry"])
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--faults`` / ``REPRO_FAULTS``
        format)."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid fault plan {path!r}: {exc}")
        return cls.from_json(data)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps() + "\n")


def env_fault_plan() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULTS`` (a JSON file path), if any."""
    path = os.environ.get("REPRO_FAULTS", "").strip()
    if not path:
        return None
    return FaultPlan.load(path)


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-event decisions.

    One injector is composed per machine and shared by every component;
    each fault kind draws from its own forked RNG stream so, e.g., DRAM
    traffic volume never perturbs the task-fault sequence.  Components
    guard every call site with ``if injector.enabled:`` — the disabled
    path does no work at all.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.enabled = not plan.is_empty()
        root = DeterministicRng("faults", plan.seed)
        self._task_rng = root.fork("task")
        self._noc_rng = root.fork("noc")
        self._stream_rng = root.fork("stream")
        self._mcast_rng = root.fork("mcast")
        self._dram_rng = root.fork("dram")

    # -- transient task faults ----------------------------------------------

    def task_fault_delay(self, task_name: str, lane_id: int, attempt: int,
                         nominal_cycles: float,
                         now: float) -> Optional[float]:
        """Decide whether execution attempt ``attempt`` of a task dies.

        Returns ``None`` (the attempt survives) or the cycles wasted by
        the dead attempt: a uniformly drawn fraction of the task's nominal
        compute time (it died mid-flight) plus the policy backoff scaled
        by the attempt number.  Raises :class:`UnrecoverableFault` when
        the retry budget is exhausted.
        """
        p = self.plan.task_fault_rate
        if p <= 0.0 or self._task_rng.random() >= p:
            return None
        if attempt >= self.plan.retry.max_attempts:
            raise UnrecoverableFault(
                "transient-task-fault",
                f"task {task_name} faulted on attempt {attempt} of "
                f"{self.plan.retry.max_attempts}; retry budget exhausted",
                task=task_name, lane=lane_id, cycle=now)
        progress = self._task_rng.random()
        return (progress * nominal_cycles
                + self.plan.retry.backoff_cycles * attempt)

    # -- NoC packet loss ----------------------------------------------------

    def noc_drops(self, kind: str, now: float) -> int:
        """How many consecutive times a message is dropped before getting
        through.  Raises when the loss burst exceeds the retry budget."""
        p = self.plan.noc_drop_rate
        if p <= 0.0:
            return 0
        drops = 0
        while self._noc_rng.random() < p:
            drops += 1
            if drops >= self.plan.retry.max_attempts:
                raise UnrecoverableFault(
                    "noc-packet-loss",
                    f"{kind} message dropped {drops} consecutive times; "
                    f"retry budget exhausted", cycle=now)
        return drops

    def stream_corrupt(self) -> bool:
        """Whether a delivered stream chunk arrives corrupt (end-to-end)."""
        p = self.plan.noc_drop_rate
        return p > 0.0 and self._stream_rng.random() < p

    def mcast_dropped(self, lanes: list) -> list:
        """Which multicast targets missed the delivery (subset of lanes)."""
        p = self.plan.noc_drop_rate
        if p <= 0.0:
            return []
        return [lane for lane in lanes if self._mcast_rng.random() < p]

    # -- DRAM delay spikes --------------------------------------------------

    def dram_spike(self, now: float) -> float:
        """Extra delay for one DRAM response (0.0 when it is on time).

        Raises when the spike reaches the memory watchdog threshold.
        """
        p = self.plan.dram_spike_rate
        if p <= 0.0 or self._dram_rng.random() >= p:
            return 0.0
        spike = self.plan.dram_spike_cycles
        if spike >= self.plan.dram_timeout_cycles:
            raise UnrecoverableFault(
                "dram-timeout",
                f"DRAM response delayed {spike:,.0f} cycles, at or past the "
                f"{self.plan.dram_timeout_cycles:,.0f}-cycle watchdog",
                cycle=now)
        return spike

    # -- lane fail-stop -----------------------------------------------------

    def lane_failed_by(self, lane_id: int, now: float) -> bool:
        """Whether the schedule has killed ``lane_id`` by cycle ``now``
        (pure — used by the barrier-phased static baseline)."""
        return any(f.lane == lane_id and now >= f.cycle
                   for f in self.plan.lane_failures)


class NullFaultInjector(FaultInjector):
    """The fault-free injector: ``enabled`` is False and stays False.

    Shares the components' call-site shape so machines always carry an
    injector; every hook is guarded on ``enabled``, so this object is
    never asked for a decision.
    """

    def __init__(self) -> None:
        super().__init__(FaultPlan())


#: Shared disabled injector for components constructed without a plan.
NULL_INJECTOR = NullFaultInjector()
