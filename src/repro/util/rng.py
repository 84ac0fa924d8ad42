"""Deterministic random number generation for reproducible experiments.

Every stochastic component in the simulator (workload generators, the
annealing mapper, randomized dispatch policies) draws from a
:class:`DeterministicRng` seeded from the experiment configuration, so a
given configuration always produces the same simulated machine behaviour.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def _stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary hashable parts, stable across runs.

    Python's builtin ``hash`` is salted per-process for strings, so we use
    SHA-256 over the repr of the parts instead.
    """
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng:
    """A seeded RNG with convenience helpers used across the project.

    Wraps :class:`random.Random` rather than subclassing it so the public
    surface stays small and intentional.
    """

    def __init__(self, *seed_parts: object) -> None:
        self._seed = _stable_seed(*seed_parts)
        self._rng = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The derived 64-bit seed (useful for logging)."""
        return self._seed

    def fork(self, *extra_parts: object) -> "DeterministicRng":
        """Create an independent child RNG keyed by additional parts.

        Forking lets subsystems draw independently: consuming numbers in one
        subsystem does not perturb another subsystem's sequence.
        """
        return DeterministicRng(self._seed, *extra_parts)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi)``."""
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` (inclusive, like random.randint)."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def getrandbits(self, k: int) -> int:
        """A ``k``-bit random int, built from the generator's 32-bit words
        least significant first — the words :meth:`randint` draws."""
        return self._rng.getrandbits(k)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements."""
        return self._rng.sample(seq, k)

    def zipf_sizes(self, count: int, alpha: float, max_size: int) -> list[int]:
        """Generate ``count`` integer sizes following a truncated Zipf law.

        Used by workload generators to create the skewed work distributions
        (e.g. power-law row lengths) that motivate work-aware load balancing.
        ``alpha`` controls skew: larger alpha concentrates work in few items.
        """
        if count <= 0:
            return []
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        # Inverse-CDF sampling over ranks 1..max_size.
        weights = [1.0 / (rank**alpha) for rank in range(1, max_size + 1)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        sizes = []
        for _ in range(count):
            u = self._rng.random()
            # Binary search the CDF.
            lo, hi = 0, len(cdf) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cdf[mid] < u:
                    lo = mid + 1
                else:
                    hi = mid
            sizes.append(lo + 1)
        return sizes

    def power_law_degrees(self, n: int, alpha: float, min_deg: int,
                          max_deg: int) -> list[int]:
        """Degree sequence for a synthetic power-law graph."""
        span = max(max_deg - min_deg, 0) + 1
        raw = self.zipf_sizes(n, alpha, span)
        return [min_deg + r - 1 for r in raw]

    def pick_weighted(self, items: Iterable[T], weights: Iterable[float]) -> T:
        """Choose one item with probability proportional to its weight."""
        items = list(items)
        weights = list(weights)
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be equal-length, non-empty")
        return self._rng.choices(items, weights=weights, k=1)[0]
