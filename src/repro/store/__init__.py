"""repro.store — the shared on-disk cache substrate.

The evaluation result cache (:mod:`repro.eval.cache`) and the job
records of ``repro serve`` (:mod:`repro.serve.queue`) are typed schemas
over this package, so concurrent tenants (the ``eval`` worker pool and
``repro serve``) read and write one store safely:

- :class:`ShardedStore` — a generic content-addressed store. Keys are
  hex digests sharded by prefix into subdirectories, entries publish via
  write-temp-then-rename (readers see an old or a complete new entry,
  never a torn one), and per-shard advisory file locks serialize writers
  that would otherwise collide.
- eviction — an mtime-based LRU-ish size cap
  (``REPRO_CACHE_MAX_MB`` / ``repro eval --cache-max-mb``): after every
  write the store sheds the least-recently-used entries until it is back
  under budget. Reads refresh an entry's mtime, so warm entries survive.
- counters — every operation adds to a ``cache.*`` counter (hits,
  misses, stores, evictions, coalesced, corrupt, lock_waits) of the
  :class:`~repro.util.counters.Counters` bag the store was opened with.

The store holds completed results only. A point still being computed is
shared in flight by :mod:`repro.eval.parallel`'s in-flight table, which
counts each request that joined it as ``cache.coalesced``.

Layering: this package imports only :mod:`repro.util` (enforced by
``tools/check_layering.py``). The typed schemas — what an entry *means*,
how it serializes, how it is verified — live above it.
"""

from repro.store.keys import (
    cache_budget_bytes,
    code_version,
    default_cache_root,
    stable_hash,
    workload_cache_key,
)
from repro.store.locks import ShardLock
from repro.store.sharded import ShardedStore, open_store

__all__ = [
    "ShardLock",
    "ShardedStore",
    "cache_budget_bytes",
    "code_version",
    "default_cache_root",
    "open_store",
    "stable_hash",
    "workload_cache_key",
]
