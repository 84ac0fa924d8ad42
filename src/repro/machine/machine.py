"""Composition of the simulated hardware shared by every execution model.

The paper's apples-to-apples claim rests on Delta and the static-parallel
baseline sharing the *exact same datapath*. :class:`Machine` is that
datapath, built once, in one place, from a
:class:`~repro.arch.config.MachineConfig`: the event environment, the
counter bag, the mesh NoC, DRAM, the place-and-route mapper, and the
lanes. Execution models (the Delta dispatcher + multicast manager,
the static phase schedule, the software runtime) layer their policy on
top without touching machine internals.

Construction order is part of the determinism contract: components
register processes and stores with the environment as they are built, and
the event kernel breaks ties FIFO, so the order here must stay stable for
golden fingerprints to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch.config import MachineConfig
from repro.arch.dram import Dram
from repro.arch.lane import Lane
from repro.arch.mapper import Mapper
from repro.arch.noc import Noc
from repro.sim import Environment, make_environment
from repro.sim.faults import (
    FaultInjector,
    NullFaultInjector,
    env_fault_plan,
)
from repro.sim.sanitize import (
    NullSanitizer,
    Sanitizer,
    env_sanitize_requested,
)
from repro.sim.trace import NullTracer, Tracer
from repro.util.counters import Counters


@dataclass
class Machine:
    """One instantiated datapath: environment, counters, NoC, DRAM, lanes."""

    config: MachineConfig
    env: Environment
    counters: Counters
    noc: Noc
    dram: Dram
    mapper: Mapper
    lanes: list[Lane]
    tracer: Tracer
    sanitizer: Sanitizer = field(default_factory=NullSanitizer)
    injector: FaultInjector = field(default_factory=NullFaultInjector)

    @classmethod
    def build(cls, config: MachineConfig, *,
              tracer: Optional[Tracer] = None,
              multicast_enabled: Optional[bool] = None) -> "Machine":
        """Compose a fresh machine from ``config``.

        ``multicast_enabled`` overrides ``config.noc.multicast`` — the
        static baseline models a NoC without multicast trees even when the
        shared config enables them (the datapath is identical; the *use*
        of the tree hardware is an execution-model property).

        The machine carries a live :class:`~repro.sim.sanitize.Sanitizer`
        when ``config.sanitize`` is set or ``REPRO_SANITIZE`` is truthy,
        a disabled one otherwise, and a fault injector armed with
        ``config.faults`` (else the ``REPRO_FAULTS`` plan); a machine
        without a plan carries a disabled injector, so the fault hooks
        cost nothing.
        """
        tracer = tracer or NullTracer()
        sanitize = config.sanitize or env_sanitize_requested()
        sanitizer = Sanitizer() if sanitize else NullSanitizer()
        plan = config.faults if config.faults is not None \
            else env_fault_plan()
        injector: FaultInjector = NullFaultInjector()
        if plan is not None and not plan.is_empty():
            for failure in plan.lane_failures:
                if not 0 <= failure.lane < config.lanes:
                    raise ValueError(
                        f"fault plan kills lane {failure.lane}, but the "
                        f"machine has lanes 0..{config.lanes - 1}")
            injector = FaultInjector(plan)
        # REPRO_ENGINE picks the event kernel (fast calendar queue by
        # default, the reference heap as oracle); both produce identical
        # fingerprints, so the choice is invisible to result_stats.
        env = make_environment()
        if sanitizer.enabled:
            env.clock_monitor = sanitizer.clock_advanced
        counters = Counters()
        if multicast_enabled is None:
            multicast_enabled = config.noc.multicast
        noc = Noc(env, counters, config.lanes,
                  config.noc.link_bytes_per_cycle,
                  config.noc.hop_latency, config.noc.header_bytes,
                  multicast_enabled=multicast_enabled,
                  sanitizer=sanitizer, injector=injector)
        dram = Dram(env, counters, config.dram.bytes_per_cycle,
                    config.dram.latency, config.dram.random_penalty,
                    injector=injector)
        mapper = Mapper(config.lane.fabric, seed=config.seed)
        lanes = [
            Lane(env, counters, i, config.lane, noc, dram, mapper,
                 element_bytes=config.element_bytes, sanitizer=sanitizer)
            for i in range(config.lanes)
        ]
        return cls(config=config, env=env, counters=counters, noc=noc,
                   dram=dram, mapper=mapper, lanes=lanes, tracer=tracer,
                   sanitizer=sanitizer, injector=injector)

    @property
    def lane_busy(self) -> list[float]:
        """Per-lane busy cycles, in lane order (the imbalance vector)."""
        return [lane.busy_cycles for lane in self.lanes]
