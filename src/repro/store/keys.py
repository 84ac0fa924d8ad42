"""The store's key model: what identifies an entry, and where entries live.

A schema over the store keys its entries with :func:`stable_hash` over
its own identity parts. The evaluation cache
(:func:`repro.eval.cache.comparison_key`) hashes

- its **schema format** version, so a layout change never hits old
  entries;
- the **code version** — a digest of every ``repro`` source file — so any
  edit to the simulator, the workloads, or the harness invalidates every
  entry rather than silently serving stale numbers;
- the point's identity (workload identity, machine configs, flags).

Job records (:mod:`repro.serve.queue`) are keyed by job id instead. The
key is a SHA-256 hex digest; :class:`~repro.store.sharded.ShardedStore`
shards it by prefix into subdirectories.

The primitives live in :mod:`repro.util` (below this package — the store
imports only util); this module is the single front door cache schemas
import them through. The historical homes (``repro.util.codebase``,
``repro.util.fingerprint``) keep their definitions, so direct imports
keep working.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.codebase import (  # noqa: F401  (re-exported: the key model)
    code_version,
    default_cache_root,
    digest_tree,
    source_files,
)
from repro.util.fingerprint import (  # noqa: F401  (re-exported: the key model)
    stable_hash,
    workload_cache_key,
    workload_identity,
)

#: Environment override for the store-wide size cap, in megabytes.
BUDGET_ENV = "REPRO_CACHE_MAX_MB"


def cache_budget_bytes(max_mb: Optional[float] = None) -> Optional[int]:
    """Resolve the store size cap to bytes.

    An explicit ``max_mb`` (e.g. from ``--cache-max-mb``) wins; otherwise
    the ``REPRO_CACHE_MAX_MB`` environment variable applies; otherwise the
    store is uncapped (None). A value <= 0 means explicitly uncapped.
    """
    if max_mb is None:
        env = os.environ.get(BUDGET_ENV, "").strip()
        if not env:
            return None
        try:
            max_mb = float(env)
        except ValueError:
            return None
    if max_mb is None or max_mb <= 0:
        return None
    return int(max_mb * 1024 * 1024)
