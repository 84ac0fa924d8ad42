"""Run results: everything the evaluation harness reads after a simulation.

Every simulator built on :mod:`repro.machine` — the Delta runtime, the
static-parallel baseline, the software task runtime — returns a
:class:`RunResult` assembled by :class:`~repro.machine.session.RunSession`,
so every experiment compares like with like. Its :class:`RunRecord` —
the canonical statistics alone, without functional outputs, trace or
configuration — is the only form of a run that crosses a process or disk
boundary. Derived statistics are defined once for both, in
:class:`RunStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.arch.config import MachineConfig
from repro.sim.trace import Tracer
from repro.util.counters import Counters
from repro.util.stats import coefficient_of_variation


class RunStats:
    """Derived statistics of one run, shared by :class:`RunResult` and
    :class:`RunRecord`: both have ``machine``, ``program_name``,
    ``cycles``, ``tasks_executed``, ``lane_busy`` and a ``counters`` bag."""

    @property
    def lanes(self) -> int:
        """Lane count the run used."""
        return len(self.lane_busy)

    @property
    def imbalance_cv(self) -> float:
        """Coefficient of variation of per-lane busy cycles (figure F4)."""
        if not self.lane_busy:
            return 0.0
        return coefficient_of_variation(self.lane_busy)

    @property
    def mean_lane_utilization(self) -> float:
        """Mean busy fraction across lanes."""
        if not self.lane_busy or self.cycles <= 0:
            return 0.0
        return sum(self.lane_busy) / (len(self.lane_busy) * self.cycles)

    @property
    def dram_bytes(self) -> float:
        """Actual DRAM bytes moved (reads + writes)."""
        counters = self.counters
        return (counters.get("dram.read_bytes")
                + counters.get("dram.write_bytes"))

    @property
    def noc_bytes(self) -> float:
        """Total NoC link-bytes moved."""
        return self.counters.get("noc.bytes")

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.machine:>7} {self.program_name:<14} "
                f"{self.cycles:>12,.0f} cyc  {self.tasks_executed:>6} tasks  "
                f"CV={self.imbalance_cv:.3f}  "
                f"DRAM={self.dram_bytes / 1024:.1f} KiB  "
                f"NoC={self.noc_bytes / 1024:.1f} KiB")


@dataclass(frozen=True)
class RunRecord(RunStats):
    """The pure-data statistics of one finished run.

    Its six fields are the canonical stats tuple in order, already in
    canonical form, so :attr:`stats` is free and two records are equal
    exactly when their runs are bit-identical. ``counter_snapshot`` is
    the sorted ``(name, value)`` snapshot of the run's counter bag.
    """

    machine: str
    program_name: str
    cycles: float
    tasks_executed: int
    lane_busy: tuple[float, ...]
    counter_snapshot: tuple[tuple[str, float], ...]

    @property
    def stats(self) -> tuple:
        """The canonical stats tuple: the fields as stored."""
        return (self.machine, self.program_name, self.cycles,
                self.tasks_executed, self.lane_busy, self.counter_snapshot)

    @property
    def counters(self) -> Counters:
        """The run's counter bag, rebuilt from the snapshot: a fresh copy
        on every read, so the record itself never changes."""
        return Counters.from_snapshot(self.counter_snapshot)


@dataclass
class RunResult(RunStats):
    """Outcome of simulating one program on one machine."""

    machine: str
    program_name: str
    config: MachineConfig
    cycles: float
    tasks_executed: int
    counters: Counters
    lane_busy: list[float]
    state: Any
    #: Timeline of the run when tracing was requested (see Delta.run /
    #: StaticParallel.run ``trace=`` parameter), else None.
    trace: Optional["Tracer"] = None

    @property
    def stats(self) -> tuple:
        """The canonical stats tuple, converted from the live run."""
        return (self.machine, self.program_name, float(self.cycles),
                int(self.tasks_executed),
                tuple(float(b) for b in self.lane_busy),
                self.counters.snapshot())

    def record(self) -> RunRecord:
        """This run's statistics as pure data, without its state, trace,
        counter bag or configuration."""
        return RunRecord(*self.stats)
