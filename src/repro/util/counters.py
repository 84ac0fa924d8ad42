"""The counter bag: every statistic of a run or of the harness.

Simulated components add to counters of a machine's bag as they run
(``dram.read_bytes``, ``lane3.busy_cycles``), and the harness adds to a
bag of its own (``cache.hits``, ``eval.worker_deaths``,
``serve.shed``). Every counter has one full dotted name, written and read
as that string; docs/architecture.md §5 lists them. Reading a counter
nothing has added to yields 0.
"""

from __future__ import annotations

from typing import Iterator


class Counters:
    """A bag of named numeric counters."""

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

    def items(self) -> Iterator[tuple[str, float]]:
        """Sorted (name, value) pairs."""
        return iter(self.snapshot())

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
