"""Analytical energy model driven by the run's hardware counters.

Every simulated component already counts its activity (fabric trips,
scratchpad bytes, NoC link-bytes, DRAM bytes, reconfigurations, dispatch
events), so energy is a post-processing step: multiply activities by
per-event energies and sum. Unit energies are rough 28nm-class numbers
(pJ); as with the area model, only the *ratios* matter for the
reproduction — the claim class is "structure recovery saves energy because
it removes data movement", and data movement dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only; arch stays below core
    from repro.machine.result import RunStats


@dataclass(frozen=True)
class EnergyParameters:
    """Per-event energies in picojoules (28nm-class, order-of-magnitude)."""

    fu_op: float = 0.6               # one FU operation (trip ~ a few ops)
    ops_per_trip: float = 4.0        # mean active FUs per pipeline trip
    spad_per_byte: float = 0.25
    noc_per_byte_hop: float = 0.45   # link + switch traversal
    dram_per_byte: float = 15.0
    config_per_cycle: float = 3.0    # bitstream load burst
    dispatch_event: float = 2.5      # queue write + arbitration
    static_per_lane_cycle: float = 1.2  # leakage + clock per lane


@dataclass(frozen=True)
class EnergyBreakdown:
    """Computed energy in nanojoules per component."""

    compute: float
    scratchpad: float
    noc: float
    dram: float
    config: float
    dispatch: float
    static: float

    @property
    def total(self) -> float:
        """Total energy (nJ)."""
        return (self.compute + self.scratchpad + self.noc + self.dram
                + self.config + self.dispatch + self.static)

    @property
    def data_movement(self) -> float:
        """Energy spent moving bytes (nJ) — the part structure recovery
        attacks."""
        return self.scratchpad + self.noc + self.dram

    def rows(self) -> list[tuple[str, float]]:
        """(component, nJ) rows for reports."""
        return [
            ("fabric compute", self.compute),
            ("scratchpad", self.scratchpad),
            ("NoC", self.noc),
            ("DRAM", self.dram),
            ("reconfiguration", self.config),
            ("task dispatch", self.dispatch),
            ("static (leakage+clock)", self.static),
            ("TOTAL", self.total),
        ]


def estimate_energy(result: "RunStats",
                    params: EnergyParameters = EnergyParameters(),
                    ) -> EnergyBreakdown:
    """Energy breakdown for one finished simulation run: a live
    ``RunResult`` or the ``RunRecord`` of a comparison."""
    counters = result.counters
    pj_to_nj = 1e-3

    trips = sum(v for k, v in counters.items()
                if k.endswith(".trips"))
    compute = trips * params.ops_per_trip * params.fu_op

    spad_bytes = sum(v for k, v in counters.items()
                     if ".spad.read_bytes" in k
                     or ".spad.write_bytes" in k)
    scratchpad = spad_bytes * params.spad_per_byte

    noc = counters.get("noc.bytes") * params.noc_per_byte_hop
    dram = ((counters.get("dram.read_bytes")
             + counters.get("dram.write_bytes")) * params.dram_per_byte)
    config = (sum(v for k, v in counters.items()
                  if k.endswith(".config_cycles"))
              * params.config_per_cycle)
    dispatch = counters.get("dispatch.dispatched") * params.dispatch_event
    static = (result.cycles * result.lanes
              * params.static_per_lane_cycle)

    return EnergyBreakdown(
        compute=compute * pj_to_nj,
        scratchpad=scratchpad * pj_to_nj,
        noc=noc * pj_to_nj,
        dram=dram * pj_to_nj,
        config=config * pj_to_nj,
        dispatch=dispatch * pj_to_nj,
        static=static * pj_to_nj,
    )
