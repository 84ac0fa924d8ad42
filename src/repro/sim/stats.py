"""Busy-time tracking for simulated components.

A :class:`UtilizationTracker` accumulates one component's busy cycles and
adds them to the machine's counter bag
(:class:`~repro.util.counters.Counters`) under ``<name>.busy_cycles``.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Environment
from repro.util.counters import Counters


class UtilizationTracker:
    """Tracks busy time of a component across possibly-overlapping intervals.

    Components call :meth:`busy` with durations; because our components
    serialize their own busy periods (FIFO servers), simple accumulation is
    exact. The tracker also remembers the last activity time, which the
    load-imbalance metric uses as per-lane finish time.
    """

    def __init__(self, env: Environment, counters: Counters,
                 name: str) -> None:
        self.env = env
        self.counters = counters
        self.name = name
        self._busy_key = f"{name}.busy_cycles"
        self._busy = 0.0
        self._last_active: Optional[float] = None

    def busy(self, duration: float) -> None:
        """Record ``duration`` cycles of busy time ending now."""
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        self._busy += duration
        self._last_active = self.env.now
        self.counters.add(self._busy_key, duration)

    @property
    def busy_cycles(self) -> float:
        """Total accumulated busy cycles."""
        return self._busy

    @property
    def last_active(self) -> Optional[float]:
        """Simulated time of the most recent recorded activity."""
        return self._last_active

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy fraction relative to ``elapsed`` (default env.now)."""
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy / horizon)
