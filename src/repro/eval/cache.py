"""The evaluation result cache: a typed schema over :mod:`repro.store`.

A cache entry is a digest plus one pickled, frozen
:class:`~repro.eval.runner.Comparison` of two run records
(:class:`~repro.machine.result.RunRecord`) — pure data: the functional
outputs are checked inside ``compare()`` but never stored. It is keyed by
a stable hash of everything that determines its value:

- the workload's identity (class, name, and the bound constructor
  arguments, defaults applied: ``Workload.arguments``);
- both :class:`~repro.arch.config.MachineConfig` instances, including the
  seed (frozen dataclasses with exact-float reprs);
- whether functional verification ran;
- the *code version* — a digest of every ``repro`` source file — so any
  change to the simulator invalidates every entry rather than silently
  serving stale numbers;
- the cache format version.

This keying is sound because of the determinism contract (see
:mod:`repro.util.fingerprint`): a point's result is a pure function of the
key's inputs. A batch keys every point with the same two configs, so
their reprs are built once per batch, not once per point.

Each entry stores one digest alongside the payload, re-verified on load,
so a corrupted or tampered entry is discarded and recomputed instead of
poisoning a sweep. The digest covers what the comparison fingerprint
covers — the workload name and both runs' canonical stats — plus the
critical-path bound, hashed as SHA-256 over their ``marshal`` bytes
(format version 2, which writes no object references, so a comparison and
its unpickled copy give the same bytes; every float is written bit-exact).
A hit therefore pays for its read, its unpickle and this check, and never
rebuilds the reprs :func:`~repro.util.fingerprint.comparison_fingerprint`
hashes.

Storage — sharding, atomic publish, per-shard locking, the size-cap
eviction policy, and the ``cache.*`` metrics — is the shared
:class:`~repro.store.sharded.ShardedStore`'s job; this module only
defines what an entry *means*: the ``"eval"`` namespace, the pickle
layout, and digest verification. Entries live under
``<cache root>/eval/<shard>/<key>.pkl``.

The default cache root is ``.repro-cache/`` at the repository root (next
to ``pyproject.toml``), or ``~/.cache/repro-eval`` for installed copies;
``REPRO_CACHE_DIR`` overrides both. The code-version digest, cache-root
resolution, and workload identity key form the store's key model
(:mod:`repro.store.keys`).
"""

from __future__ import annotations

import hashlib
import marshal
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.store.keys import code_version, hash_reprs, workload_cache_key
from repro.store.sharded import ShardedStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.config import MachineConfig
    from repro.eval.runner import Comparison
    from repro.workloads.base import Workload

#: Bump when the entry layout changes; old entries are simply never hit.
CACHE_FORMAT = 5

#: The store namespace comparison entries live in.
NAMESPACE = "eval"

#: The configs of the last key built and their reprs. Reused only for the
#: very same objects (identity, not equality: equal configs can differ in
#: repr, as 0.0 and -0.0 do, and the check must cost less than the reprs
#: it saves); holding them keeps their ids from being recycled. One
#: tuple, read and replaced whole, so threads keying different configs at
#: once each hash their own.
_last_configs: tuple = (None, None, None, ())


def comparison_key(workload: "Workload",
                   delta_config: "MachineConfig",
                   static_config: "MachineConfig",
                   verify: bool = True) -> str:
    """Cache key for one (workload, machine pair, verify) point:
    ``stable_hash(CACHE_FORMAT, code_version(), workload_cache_key(workload),
    delta_config, static_config, verify)``.

    Module-level so the parallel executor can coalesce duplicate
    in-flight points by key even when no cache is attached. Composed from
    this module's imported key-model names, so tests can monkeypatch
    ``code_version`` here to prove invalidation.
    """
    global _last_configs
    last = _last_configs
    if (last[0] is not delta_config or last[1] is not static_config
            or last[2] is not verify):
        last = _last_configs = (
            delta_config, static_config, verify,
            (repr(delta_config), repr(static_config), repr(verify)))
    return hash_reprs((repr(CACHE_FORMAT), repr(code_version()),
                       repr(workload_cache_key(workload)), *last[3]))


def _entry_digest(comparison: "Comparison") -> str:
    """What an entry is verified by: the workload name, both runs' stats
    and the critical-path bound, in one digest of their bytes."""
    return hashlib.sha256(marshal.dumps(
        (comparison.workload, comparison.delta.stats,
         comparison.static.stats, comparison.parallelism), 2)).hexdigest()


class EvalCache:
    """Content-addressed store of evaluation comparisons.

    Tracks ``hits`` / ``misses`` / ``stores`` locally so callers (CLI,
    tests) can report this cache's effectiveness — a corrupted entry
    counts as a miss — and mirrors every operation onto the shared
    store's ``cache.*`` metrics sink.
    """

    def __init__(self, root: Optional[Path] = None, *,
                 store: Optional[ShardedStore] = None) -> None:
        self.store = store if store is not None else ShardedStore(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def root(self) -> Path:
        return self.store.root

    def _path(self, key: str) -> Path:
        return self.store.path_for(NAMESPACE, key)

    # -- storage ---------------------------------------------------------

    def get(self, key: str) -> Optional["Comparison"]:
        """Load an entry, or None on miss/corruption (entry then dropped)."""
        payload = self.store.read(NAMESPACE, key)
        if payload is None:
            self._miss()
            return None
        try:
            entry = pickle.loads(payload)
            comparison = entry["comparison"]
            if entry["digest"] != _entry_digest(comparison):
                raise ValueError("digest mismatch")
        except Exception as exc:
            # Truncated pickle, foreign object, failed digest: discard the
            # entry and let the caller recompute.
            self.store.discard_corrupt(NAMESPACE, key, repr(exc))
            self._miss()
            return None
        self.hits += 1
        self.store.metrics.add("hits")
        return comparison

    def _miss(self) -> None:
        self.misses += 1
        self.store.metrics.add("misses")

    def put(self, key: str, comparison: "Comparison") -> None:
        """Store an entry (atomic publish + size-budget enforcement)."""
        payload = pickle.dumps(
            {"digest": _entry_digest(comparison),
             "comparison": comparison},
            protocol=pickle.HIGHEST_PROTOCOL)
        self.store.write(NAMESPACE, key, payload)
        self.stores += 1

    def clear(self) -> int:
        """Delete every comparison entry; returns how many were removed."""
        return self.store.clear(NAMESPACE)

    def __len__(self) -> int:
        return self.store.entry_count(NAMESPACE)

    def stats(self) -> str:
        """One-line hit/miss summary for CLI output."""
        return (f"cache {self.root}: {self.hits} hits, "
                f"{self.misses} misses, {self.stores} stored, "
                f"{len(self)} entries")
