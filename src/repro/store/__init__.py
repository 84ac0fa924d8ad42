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
- :class:`Coalescer` — in-process request coalescing: concurrent callers
  computing the same key share one in-flight computation instead of
  duplicating it (used by :mod:`repro.eval.parallel`; the building block
  for the sweep server).
- metrics — every operation lands on a ``cache.*`` counter sink (hits,
  misses, stores, evictions, coalesced, corrupt, lock_waits). Any object
  with ``add(name, amount)`` works; :class:`repro.machine.metrics
  .CacheMetrics` is the typed MetricsBus group, :class:`StoreMetrics`
  the dependency-free default.

Layering: this package imports only :mod:`repro.util` (enforced by
``tools/check_layering.py``). The typed schemas — what an entry *means*,
how it serializes, how it is verified — live above it.
"""

from repro.store.coalesce import Coalescer
from repro.store.keys import (
    cache_budget_bytes,
    code_version,
    default_cache_root,
    entry_key,
    stable_hash,
    workload_cache_key,
)
from repro.store.locks import ShardLock
from repro.store.metrics import NULL_METRICS, StoreMetrics
from repro.store.sharded import ShardedStore, open_store

__all__ = [
    "Coalescer",
    "NULL_METRICS",
    "ShardLock",
    "ShardedStore",
    "StoreMetrics",
    "cache_budget_bytes",
    "code_version",
    "default_cache_root",
    "entry_key",
    "open_store",
    "stable_hash",
    "workload_cache_key",
]
