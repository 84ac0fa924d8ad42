"""Hardware statistic counters collected during a simulation run.

Every simulated component increments named counters on a shared
:class:`Counters` object; the evaluation harness reads them after the run.
Counter names are dotted paths (``dram.bytes``, ``lane3.busy_cycles``) so
reports can aggregate by prefix.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.sim.engine import Environment


class Counters:
    """A bag of named numeric counters plus derived-metric helpers."""

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._values[name] = self._values.get(name, 0.0) + amount

    def set_max(self, name: str, value: float) -> None:
        """Keep the maximum observed value under ``name``."""
        if value > self._values.get(name, float("-inf")):
            self._values[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        """Read a counter (0 by default)."""
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> list[str]:
        """Sorted counter names."""
        return sorted(self._values)

    def items(self) -> Iterator[tuple[str, float]]:
        """Sorted (name, value) pairs."""
        for name in self.names():
            yield name, self._values[name]

    def sum_prefix(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self._values.items() if k.startswith(prefix))

    def by_prefix(self, prefix: str) -> dict[str, float]:
        """All counters under a prefix, keyed by the remainder of the name."""
        plen = len(prefix)
        return {k[plen:]: v for k, v in self._values.items()
                if k.startswith(prefix)}

    def merge(self, other: "Counters") -> None:
        """Add all of ``other``'s counters into this bag."""
        for name, value in other._values.items():
            self.add(name, value)

    def as_dict(self) -> dict[str, float]:
        """Copy of the raw counter mapping."""
        return dict(self._values)

    def snapshot(self) -> tuple[tuple[str, float], ...]:
        """Canonical sorted ``(name, value)`` tuple of every counter.

        This is the fingerprint form: two runs are statistically identical
        exactly when their snapshots (and headline stats) compare equal.
        """
        return tuple(sorted(self._values.items()))

    @classmethod
    def from_snapshot(cls, snapshot) -> "Counters":
        """A fresh bag holding the counters of a :meth:`snapshot`."""
        counters = cls()
        counters._values = dict(snapshot)
        return counters

    def render(self, prefix: str = "") -> str:
        """Readable multi-line dump, optionally filtered by prefix."""
        rows = [(k, v) for k, v in self.items() if k.startswith(prefix)]
        if not rows:
            return "(no counters)"
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v:,.1f}" for k, v in rows)


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
