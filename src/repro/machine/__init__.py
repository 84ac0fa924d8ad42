"""The machine layer: one datapath composition + run lifecycle for every
execution model.

This package sits between the hardware component models (:mod:`repro.arch`,
:mod:`repro.sim`) and the execution models built on them (:mod:`repro.core`
Delta, :mod:`repro.baseline`):

- :class:`Machine` — composes the simulated hardware (environment,
  counter bag, NoC, DRAM, mapper, lanes) from one
  :class:`~repro.arch.config.MachineConfig`.
- :class:`RunSession` — the shared run lifecycle: max-cycle guard,
  stall detection (:class:`ExecutionStalled`), progress accounting, and
  canonical :class:`RunResult` assembly.
- :class:`RunRecord` — a result's statistics as frozen pure data, the
  only form of a run that crosses a process or disk boundary.

Both simulators being thin policies over this one layer is what makes the
paper's Delta-vs-static comparison apples-to-apples by construction.
"""

from repro.machine.machine import Machine
from repro.machine.result import RunRecord, RunResult
from repro.machine.session import ExecutionStalled, RunSession

__all__ = [
    "Machine",
    "RunSession",
    "RunResult",
    "RunRecord",
    "ExecutionStalled",
]
