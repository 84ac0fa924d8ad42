"""Architecture parameter dataclasses.

One :class:`MachineConfig` describes everything needed to instantiate either
the Delta accelerator or the static-parallel baseline: both share lanes,
NoC, scratchpads and DRAM; they differ only in the task-hardware features
enabled (:class:`FeatureFlags`) and the scheduling model.

Defaults approximate a modest 8-lane reconfigurable dataflow accelerator in
the style the paper evaluates: each lane a 5x5 CGRA with banked scratchpad,
lanes joined by a mesh NoC to a memory controller and a task dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.faults import FaultPlan
from repro.util.validate import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
)


@dataclass(frozen=True)
class FabricConfig:
    """Geometry and FU mix of one lane's CGRA fabric.

    ``mul_ratio``/``mem_ratio`` give the fraction of grid cells whose FU can
    execute multiply-class / memory-class operations (all cells execute
    ALU-class ops). The mapper uses these capabilities when placing DFG
    nodes.
    """

    rows: int = 5
    cols: int = 5
    mul_ratio: float = 0.5
    mem_ratio: float = 0.25
    switch_latency: int = 1

    def __post_init__(self) -> None:
        check_positive("fabric.rows", self.rows)
        check_positive("fabric.cols", self.cols)
        check_in_range("fabric.mul_ratio", self.mul_ratio, 0.0, 1.0)
        check_in_range("fabric.mem_ratio", self.mem_ratio, 0.0, 1.0)
        check_non_negative("fabric.switch_latency", self.switch_latency)

    @property
    def cells(self) -> int:
        """Total grid cells."""
        return self.rows * self.cols


@dataclass(frozen=True)
class LaneConfig:
    """One accelerator lane: fabric + scratchpad + stream engines."""

    fabric: FabricConfig = field(default_factory=FabricConfig)
    spad_bytes: int = 64 * 1024
    spad_banks: int = 8
    spad_bank_bytes_per_cycle: float = 8.0
    input_ports: int = 4
    output_ports: int = 2
    config_cycles: int = 64
    config_cache_entries: int = 4
    stream_chunk_bytes: int = 256
    #: Fixed cycles charged at every task start before any streams issue.
    #: Zero for hardware task management; the software-runtime baseline
    #: sets this to the cost of a software dequeue + closure call.
    task_overhead_cycles: int = 0

    def __post_init__(self) -> None:
        check_positive("lane.spad_bytes", self.spad_bytes)
        check_power_of_two("lane.spad_banks", self.spad_banks)
        check_positive("lane.spad_bank_bytes_per_cycle",
                       self.spad_bank_bytes_per_cycle)
        check_positive("lane.input_ports", self.input_ports)
        check_positive("lane.output_ports", self.output_ports)
        check_non_negative("lane.config_cycles", self.config_cycles)
        check_positive("lane.config_cache_entries", self.config_cache_entries)
        check_positive("lane.stream_chunk_bytes", self.stream_chunk_bytes)
        check_non_negative("lane.task_overhead_cycles",
                           self.task_overhead_cycles)


@dataclass(frozen=True)
class NocConfig:
    """Mesh NoC joining lanes, the memory controller, and the dispatcher."""

    link_bytes_per_cycle: float = 16.0
    hop_latency: int = 2
    multicast: bool = True
    header_bytes: int = 8

    def __post_init__(self) -> None:
        check_positive("noc.link_bytes_per_cycle", self.link_bytes_per_cycle)
        check_non_negative("noc.hop_latency", self.hop_latency)
        check_non_negative("noc.header_bytes", self.header_bytes)


@dataclass(frozen=True)
class DramConfig:
    """Main memory: aggregate bandwidth plus a row-locality penalty knob.

    The default of 16 B/cycle against eight lanes of 64 B/cycle aggregate
    scratchpad bandwidth gives the ~1:30 off-chip:on-chip ratio typical of
    accelerator systems — the regime where TaskStream's traffic-saving
    mechanisms (multicast, stream forwarding) convert into performance.
    """

    bytes_per_cycle: float = 16.0
    latency: int = 60
    random_penalty: float = 1.5

    def __post_init__(self) -> None:
        check_positive("dram.bytes_per_cycle", self.bytes_per_cycle)
        check_non_negative("dram.latency", self.latency)
        check_in_range("dram.random_penalty", self.random_penalty, 1.0, 16.0)


@dataclass(frozen=True)
class DispatchConfig:
    """The hardware task dispatcher (TaskStream's new structure).

    ``policy`` names a :class:`~repro.sched.api.SchedulingPolicy` from
    the registry (:func:`repro.sched.policy_names` is the single source
    of truth — the CLI ``--policy`` choices derive from the same list).
    Built-ins: ``work-aware`` (TaskStream's work-aware least-loaded
    default), ``round-robin``, ``random``, ``steal``, plus the tournament
    family ``critical-path``, ``streaming-depth-first``,
    ``block-partition``, and ``steal-tuned`` — see
    :mod:`repro.sched.policies` and ``docs/scheduling.md``.
    """

    policy: str = "work-aware"
    dispatch_cycles: int = 4
    queue_depth: int = 16
    steal_cycles: int = 48
    #: Fixed per-task cost (config/stream fill) the work estimator adds to
    #: each task's hint, so a lane holding many tiny tasks is correctly
    #: seen as loaded even when the sum of hints is small.
    work_overhead: float = 96.0
    #: Record the opt-in ``sched.*`` counters (pool peak, steal
    #: attempts/hits, priority inversions). Off by default: counters feed
    #: run fingerprints, so observability must be armed explicitly — the
    #: same contract as ``MachineConfig.sanitize``/``faults``.
    sched_stats: bool = False

    def __post_init__(self) -> None:
        # Resolved lazily: repro.sched sits above repro.arch in the layer
        # order, and the registry import pulls in the built-in policies.
        from repro.sched.api import policy_names

        names = policy_names()
        if self.policy not in names:
            raise ValueError(
                f"dispatch.policy must be one of {names}, "
                f"got {self.policy!r}")
        check_non_negative("dispatch.dispatch_cycles", self.dispatch_cycles)
        check_positive("dispatch.queue_depth", self.queue_depth)
        check_non_negative("dispatch.steal_cycles", self.steal_cycles)
        check_non_negative("dispatch.work_overhead", self.work_overhead)


@dataclass(frozen=True)
class FeatureFlags:
    """Which TaskStream mechanisms are active (for ablation studies).

    The first three are the paper's mechanisms (on by default). The last
    two are *extensions* in the paper's future-work direction (off by
    default): ``config_affinity`` biases the dispatcher toward lanes that
    already hold a task's fabric configuration, and ``prefetch`` starts
    the next queued task's private input streams while the current task
    computes (double buffering).
    """

    work_aware_lb: bool = True
    pipelining: bool = True
    multicast: bool = True
    config_affinity: bool = False
    prefetch: bool = False

    def label(self) -> str:
        """Short label for ablation tables, e.g. ``+lb+pipe+mcast``."""
        parts = []
        if self.work_aware_lb:
            parts.append("+lb")
        if self.pipelining:
            parts.append("+pipe")
        if self.multicast:
            parts.append("+mcast")
        if self.config_affinity:
            parts.append("+affinity")
        if self.prefetch:
            parts.append("+prefetch")
        return "".join(parts) or "base"


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine."""

    lanes: int = 8
    lane: LaneConfig = field(default_factory=LaneConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    dispatch: DispatchConfig = field(default_factory=DispatchConfig)
    features: FeatureFlags = field(default_factory=FeatureFlags)
    element_bytes: int = 4
    seed: int = 0
    #: Multicast coalescing window in cycles; None derives it from the
    #: dispatch rate (``max(16, lanes * dispatch_cycles)``).
    mcast_window: Optional[int] = None
    #: Run with the model sanitizer attached (runtime invariant checking;
    #: see :mod:`repro.sim.sanitize`). Purely observational: results are
    #: bit-identical with it on or off — it can only raise.
    sanitize: bool = False
    #: Optional fault-injection plan (see :mod:`repro.sim.faults`). None
    #: (or an empty plan) runs fault-free and bit-identical to a build
    #: without the fault machinery; a non-empty plan arms the injector
    #: and the runtimes' recovery policies.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        check_positive("machine.lanes", self.lanes)
        check_positive("machine.element_bytes", self.element_bytes)
        if self.mcast_window is not None:
            check_non_negative("machine.mcast_window", self.mcast_window)

    def effective_mcast_window(self) -> int:
        """The coalescing window the multicast manager should use."""
        if self.mcast_window is not None:
            return self.mcast_window
        return max(16, self.lanes * self.dispatch.dispatch_cycles)

    def with_features(self, features: FeatureFlags) -> "MachineConfig":
        """Copy with different TaskStream feature flags (ablations)."""
        return replace(self, features=features)

    def with_policy(self, policy: str) -> "MachineConfig":
        """Copy with a different dispatch policy (sensitivity)."""
        return replace(self, dispatch=replace(self.dispatch, policy=policy))

    def with_sanitize(self, sanitize: bool = True) -> "MachineConfig":
        """Copy with runtime invariant checking on (or off)."""
        return replace(self, sanitize=sanitize)

    def with_sched_stats(self, sched_stats: bool = True) -> "MachineConfig":
        """Copy with the opt-in ``sched.*`` counters armed (or not)."""
        return replace(self,
                       dispatch=replace(self.dispatch,
                                        sched_stats=sched_stats))

    def with_faults(self, faults: Optional[FaultPlan]) -> "MachineConfig":
        """Copy with a fault-injection plan attached (or removed)."""
        return replace(self, faults=faults)


def default_delta_config(lanes: int = 8,
                         seed: int = 0,
                         features: Optional[FeatureFlags] = None,
                         ) -> MachineConfig:
    """The Delta configuration used throughout the evaluation."""
    return MachineConfig(lanes=lanes, seed=seed,
                         features=features or FeatureFlags())


def default_baseline_config(lanes: int = 8, seed: int = 0) -> MachineConfig:
    """The equivalent static-parallel configuration.

    Identical datapath resources; all TaskStream features off. The baseline
    runner additionally replaces dynamic dispatch with static partitioning.
    """
    return MachineConfig(
        lanes=lanes, seed=seed,
        features=FeatureFlags(work_aware_lb=False, pipelining=False,
                              multicast=False))
