"""Discrete-event simulation kernel.

A small, dependency-free process-based DES in the style of SimPy: simulated
hardware components are generator coroutines that ``yield`` timeouts,
events, resource requests, and queue operations. The kernel provides:

- :class:`Environment` — the clock and event loop.
- :class:`Event` / :class:`Process` — one-shot completion events and
  coroutine processes.
- :class:`Timeout` — delay by N cycles.
- :class:`Resource` — FIFO resource with integer capacity.
- :class:`Store` — bounded FIFO queue with blocking put/get (backpressure).
- :class:`BandwidthServer` — FIFO serialization server for links/DRAM
  channels (service time proportional to bytes transferred).
- :class:`UtilizationTracker` — busy-time accounting into a counter bag.

Time is measured in integer-ish *cycles* (floats are permitted so rates
like 2.5 bytes/cycle work; the kernel orders events by time then FIFO).
"""

from repro.sim.engine import (
    Environment,
    Event,
    Process,
    Timeout,
    Interrupt,
    SimulationError,
    DeadlockError,
    total_events_processed,
)
from repro.sim.fastengine import (
    FastEnvironment,
    engine_name,
    make_environment,
)
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    LaneFailure,
    NullFaultInjector,
    RetryPolicy,
    UnrecoverableFault,
    env_fault_plan,
)
from repro.sim.resources import Resource, Store, BandwidthServer
from repro.sim.sanitize import (
    ModelInvariantError,
    NullSanitizer,
    Sanitizer,
    env_sanitize_requested,
)
from repro.sim.stats import UtilizationTracker
from repro.sim.trace import Tracer, NullTracer, TraceEvent

__all__ = [
    "Environment",
    "FastEnvironment",
    "engine_name",
    "make_environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "DeadlockError",
    "total_events_processed",
    "Resource",
    "Store",
    "BandwidthServer",
    "UtilizationTracker",
    "Tracer",
    "NullTracer",
    "TraceEvent",
    "Sanitizer",
    "NullSanitizer",
    "ModelInvariantError",
    "env_sanitize_requested",
    "FaultPlan",
    "LaneFailure",
    "RetryPolicy",
    "FaultInjector",
    "NullFaultInjector",
    "UnrecoverableFault",
    "env_fault_plan",
]
