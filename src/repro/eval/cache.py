"""The evaluation result cache: a typed schema over :mod:`repro.store`.

A cache entry is one frozen :class:`~repro.eval.runner.Comparison` as
pure data: the workload name, both runs' canonical stats
(:class:`~repro.machine.result.RunRecord` fields) and the critical-path
bound. The functional outputs are checked inside ``compare()`` but never
stored. It is keyed by a stable hash of everything that determines its
value:

- the cache format version;
- the *code version* — a digest of every ``repro`` source file — so any
  change to the simulator invalidates every entry rather than silently
  serving stale numbers;
- both :class:`~repro.arch.config.MachineConfig` instances, including the
  seed (frozen dataclasses with exact-float reprs);
- whether functional verification ran;
- the workload's identity (class, name, and the bound constructor
  arguments, defaults applied: ``Workload.arguments``).

This keying is sound because of the determinism contract (see
:mod:`repro.util.fingerprint`): a point's result is a pure function of the
key's inputs. Every point of a batch shares all but the last part, so
those are hashed once per batch into one SHA-256 state, and each point's
key copies that state and adds its workload's identity.

An entry's bytes are a 32-byte SHA-256 digest followed by the body it
covers: the ``marshal`` bytes (format version 4) of ``(workload, delta
stats, static stats, parallelism)``, with every float written bit-exact.
A hit hashes the body it read, compares the digest, decodes the body
once and rebuilds the comparison from it; a short, altered or
undecodable entry is discarded and recomputed instead of poisoning a
sweep. No hit unpickles; ``marshal`` builds built-in values only. That
is no defence against a hostile writer: ``marshal`` is not secure
against maliciously constructed data, and the digest has no key, so it
detects corruption, not tampering. Every ``repro eval`` and ``repro
serve`` process on a host reads these entries, so the cache directory
must be writable only by trusted users.

Storage — sharding, atomic publish, per-shard locking, the size-cap
eviction policy, and the ``cache.*`` counters — is the shared
:class:`~repro.store.sharded.ShardedStore`'s job; this module only
defines what an entry *means*: the ``"eval"`` namespace, the entry
layout, and digest verification. Entries live under
``<cache root>/eval/<shard>/<key>.pkl``.

The default cache root is ``.repro-cache/`` at the repository root (next
to ``pyproject.toml``), or ``~/.cache/repro-eval`` for installed copies;
``REPRO_CACHE_DIR`` overrides both. The code-version digest, cache-root
resolution, and workload identity form the store's key model
(:mod:`repro.store.keys`).
"""

from __future__ import annotations

import hashlib
import marshal
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.eval.runner import Comparison
from repro.machine.result import RunRecord
from repro.store.keys import code_version, workload_identity
from repro.store.sharded import ShardedStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.config import MachineConfig
    from repro.workloads.base import Workload

#: Bump when the entry layout changes; old entries are simply never hit.
CACHE_FORMAT = 6

#: The store namespace comparison entries live in.
NAMESPACE = "eval"

#: The ``marshal`` format of an entry's body. Version 4 may write a
#: repeated object as a back-reference, so equal comparisons can encode to
#: different bytes; that is harmless because the digest covers the bytes
#: stored, not a re-encoding of what they decode to.
_MARSHAL_VERSION = 4

#: Length of the SHA-256 digest an entry starts with.
_DIGEST_SIZE = 32

#: The batch-constant key parts of the last key built: its two configs,
#: its verify flag, the code version, and the SHA-256 state that has
#: hashed them. Reused only for the very same objects (identity, not
#: equality: equal configs can differ in repr, as 0.0 and -0.0 do, and
#: the check must cost less than the reprs it saves) and an equal code
#: version; holding the configs keeps their ids from being recycled. One
#: tuple, read and replaced whole, and its state is only ever copied, so
#: threads keying different configs at once each hash their own.
_last_batch: tuple = (None, None, None, None, None)


def comparison_key(workload: "Workload",
                   delta_config: "MachineConfig",
                   static_config: "MachineConfig",
                   verify: bool = True) -> str:
    """Cache key for one (workload, machine pair, verify) point:
    ``stable_hash(CACHE_FORMAT, code_version(), delta_config,
    static_config, verify, workload_identity(workload))``.

    Module-level so the parallel executor can coalesce duplicate
    in-flight points by key even when no cache is attached. Composed from
    this module's imported key-model names, so tests can monkeypatch
    ``code_version`` here to prove invalidation.
    """
    global _last_batch
    version = code_version()
    last = _last_batch
    if (last[0] is not delta_config or last[1] is not static_config
            or last[2] is not verify or last[3] != version):
        state = hashlib.sha256("\x1f".join((
            repr(CACHE_FORMAT), repr(version), repr(delta_config),
            repr(static_config), repr(verify), "")).encode())
        last = _last_batch = (delta_config, static_config, verify, version,
                              state)
    key = last[4].copy()
    key.update(repr(workload_identity(workload)).encode())
    return key.hexdigest()


def _encode(comparison: Comparison) -> bytes:
    """An entry's bytes: the digest of its body, then the body."""
    body = marshal.dumps((comparison.workload, comparison.delta.stats,
                          comparison.static.stats, comparison.parallelism),
                         _MARSHAL_VERSION)
    return hashlib.sha256(body).digest() + body


def _decode(payload: bytes) -> Comparison:
    """The comparison an entry holds; raises on a short or altered entry,
    an undecodable body, or one that is not a comparison's shape."""
    body = memoryview(payload)[_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != payload[:_DIGEST_SIZE]:
        raise ValueError("digest mismatch")
    workload, delta, static, parallelism = marshal.loads(body)
    if type(delta) is not tuple or type(static) is not tuple:
        raise TypeError("run stats are not tuples")
    return Comparison(workload, RunRecord(*delta), RunRecord(*static),
                      parallelism)


class EvalCache:
    """Content-addressed store of evaluation comparisons.

    Tracks ``hits`` / ``misses`` / ``stores`` locally so callers (CLI,
    tests) can report this cache's effectiveness — a corrupted entry
    counts as a miss — and adds every hit and miss to the shared
    store's ``cache.*`` counters.
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
            comparison = _decode(payload)
        except Exception as exc:
            # Short entry, failed digest, bad body: discard the entry and
            # let the caller recompute.
            self.store.discard_corrupt(NAMESPACE, key, repr(exc))
            self._miss()
            return None
        self.hits += 1
        self.store.counters.add("cache.hits")
        return comparison

    def _miss(self) -> None:
        self.misses += 1
        self.store.counters.add("cache.misses")

    def put(self, key: str, comparison: "Comparison") -> None:
        """Store an entry (atomic publish + size-budget enforcement)."""
        self.store.write(NAMESPACE, key, _encode(comparison))
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
