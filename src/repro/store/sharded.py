"""The generic content-addressed sharded store.

One :class:`ShardedStore` manages a directory tree of opaque payloads::

    <root>/<namespace>/<shard>/<key>.pkl

- **namespace** — one per schema ("eval" comparisons, "jobs" records),
  so schemas share the root, the size budget, and the ``cache.*``
  counters without ever touching each other's files;
- **shard** — the first two hex characters of the key, so a namespace
  with tens of thousands of entries never degenerates into one directory
  with tens of thousands of files, and writers contend per shard, not
  per store;
- **key** — a SHA-256 hex digest from the key model
  (:mod:`repro.store.keys`).

Payloads are opaque bytes: what an entry means, how it serializes, and
how it is verified is the schema's job (:mod:`repro.eval.cache`,
:mod:`repro.serve.queue`). The store guarantees
the storage-level contract:

- **atomic publish** — write-temp-then-rename, so a reader sees an old
  entry or a complete new one, never a torn one;
- **per-shard advisory locks** (:mod:`repro.store.locks`) — concurrent
  writers serialize per shard;
- **never raise on a bad entry** — unreadable or schema-rejected entries
  are discarded (logged + counted ``corrupt``) and the caller recomputes;
- **bounded size** — after every write the store evicts
  least-recently-used entries (mtime order; reads refresh mtime) until
  the total is back under ``max_bytes``.
"""

from __future__ import annotations

import logging
import os
import re
import time
from pathlib import Path
from typing import Collection, Iterator, Optional

from repro.store.keys import cache_budget_bytes, default_cache_root
from repro.store.locks import ShardLock
from repro.util.counters import Counters

logger = logging.getLogger("repro.store")

#: Sentinel: "no explicit budget given — resolve REPRO_CACHE_MAX_MB".
_BUDGET_FROM_ENV = object()

_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

#: Bytes asked of each ``os.read``: more than any eval entry holds, so a
#: read is one call that fills and one that finds the end. Reading
#: through ``open(path, "rb", buffering=0).readall()`` instead adds an
#: ``fstat`` and an ``lseek`` to every hit (docs/performance.md).
_READ_SIZE = 1 << 16


class ShardedStore:
    """Concurrent-safe, size-capped, namespaced store of opaque payloads."""

    #: Hex-prefix length used to pick an entry's shard directory.
    SHARD_WIDTH = 2
    #: On-disk entry suffix, whatever the schema's encoding (eval entries
    #: are a digest and ``marshal`` bytes, job records JSON).
    SUFFIX = ".pkl"
    #: Namespaces that hold *live state*, not recomputable cache entries.
    #: They are exempt from the LRU size-cap sweep and from a blanket
    #: ``clear()``: evicting a queued job record would silently lose a
    #: client's submitted work, which no cache budget may do. Their growth
    #: is bounded by explicit lifecycle sweeps (:meth:`sweep_aged`,
    #: ``repro jobs gc``) instead.
    PROTECTED_NAMESPACES = frozenset({"jobs"})

    def __init__(self, root: Optional[Path] = None, *,
                 max_bytes=_BUDGET_FROM_ENV,
                 counters: Optional[Counters] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        if max_bytes is _BUDGET_FROM_ENV:
            max_bytes = cache_budget_bytes()
        self.max_bytes: Optional[int] = max_bytes
        #: Where store activity is counted (``cache.*``); the harness
        #: passes the bag it reports, a library caller gets its own.
        self.counters = counters if counters is not None else Counters()

    # -- layout ------------------------------------------------------------

    def shard_dir(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:self.SHARD_WIDTH]

    def path_for(self, namespace: str, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        return Path(self._entry_file(namespace, key))

    def _entry_file(self, namespace: str, key: str) -> str:
        """:meth:`path_for` as a string: every cache hit reads through it,
        and three ``pathlib`` joins cost about half as much as the read."""
        sep = os.sep
        return (f"{os.fspath(self.root)}{sep}{namespace}{sep}"
                f"{key[:self.SHARD_WIDTH]}{sep}{key}{self.SUFFIX}")

    def _lock(self, namespace: str, key: str) -> ShardLock:
        return ShardLock(self.shard_dir(namespace, key), self.counters)

    def _namespace_dirs(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir()
                      if p.is_dir() and not p.name.startswith("."))

    def _entry_paths(self, namespace: Optional[str] = None) -> Iterator[Path]:
        """Every entry file, across namespaces or within one."""
        if namespace is not None:
            spaces = [self.root / namespace]
        else:
            spaces = self._namespace_dirs()
        for space in spaces:
            if not space.is_dir():
                continue
            for shard in sorted(space.iterdir()):
                if shard.is_dir() and _SHARD_RE.match(shard.name):
                    yield from sorted(shard.glob(f"*{self.SUFFIX}"))

    # -- reads ---------------------------------------------------------------

    def read(self, namespace: str, key: str) -> Optional[bytes]:
        """Raw payload bytes, or None when absent.

        A successful read refreshes the entry's mtime, which is the
        eviction policy's recency signal. An entry that cannot be read at
        all (permissions, I/O error) is treated as absent, never raised.
        One descriptor serves the read and the refresh, so the path is
        resolved once.
        """
        path = self._entry_file(namespace, key)
        chunks = []
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                while chunk := os.read(fd, _READ_SIZE):
                    chunks.append(chunk)
                try:
                    os.utime(fd)
                except OSError:
                    pass  # recency refresh is best-effort
            finally:
                os.close(fd)
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - host-specific I/O errors
            logger.warning("unreadable cache entry %s (%s); ignoring",
                           path, exc)
            return None
        return b"".join(chunks)

    # -- writes --------------------------------------------------------------

    def write(self, namespace: str, key: str, payload: bytes) -> None:
        """Publish an entry atomically, then enforce the size budget."""
        with self._lock(namespace, key):
            self._publish(namespace, key, payload)
        self.evict_to_budget()

    def _publish(self, namespace: str, key: str, payload: bytes) -> None:
        path = self.path_for(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        self.counters.add("cache.stores")

    # -- discard / clear -------------------------------------------------------

    def delete(self, namespace: str, key: str) -> bool:
        """Remove one entry; True when it existed."""
        try:
            self.path_for(namespace, key).unlink()
            return True
        except FileNotFoundError:
            return False

    def discard_corrupt(self, namespace: str, key: str, reason: str) -> None:
        """Drop an entry the schema rejected: log, count, delete — never raise.

        The caller recomputes; a truncated, garbage, or tampered entry
        must never poison a sweep or abort one.
        """
        logger.warning("corrupt cache entry %s/%s (%s); discarding",
                       namespace, key, reason)
        self.counters.add("cache.corrupt")
        self.delete(namespace, key)

    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete every entry (in one namespace, or all); returns the count.

        Clearing everything skips the :data:`PROTECTED_NAMESPACES` — a
        ``--clear-cache`` must never delete live job records that share
        the store root (name a protected namespace explicitly to clear
        it).
        """
        removed = 0
        if namespace is None:
            spaces = [space.name for space in self._namespace_dirs()
                      if space.name not in self.PROTECTED_NAMESPACES]
        else:
            spaces = [namespace]
        for space in spaces:
            for path in list(self._entry_paths(space)):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def clear_report(self) -> dict[str, int]:
        """Per-namespace entry counts removed by clearing everything.

        Protected namespaces (live job records) are neither counted nor
        cleared.
        """
        report = {space.name: sum(1 for _ in self._entry_paths(space.name))
                  for space in self._namespace_dirs()
                  if space.name not in self.PROTECTED_NAMESPACES}
        report = {name: count for name, count in report.items() if count}
        self.clear()
        return report

    # -- accounting ------------------------------------------------------------

    def keys(self, namespace: str) -> Iterator[str]:
        for path in self._entry_paths(namespace):
            yield path.name[:-len(self.SUFFIX)]

    def items(self, namespace: str) -> Iterator[tuple[str, bytes]]:
        """Every (key, payload) pair in a namespace, in key order.

        Entries that vanish mid-scan (concurrent eviction, deletion) are
        skipped. This is the recovery scan ``repro serve`` replays its
        persistent ``jobs`` namespace with after a restart.
        """
        for key in self.keys(namespace):
            payload = self.read(namespace, key)
            if payload is not None:
                yield key, payload

    def entry_count(self, namespace: Optional[str] = None) -> int:
        return sum(1 for _ in self._entry_paths(namespace))

    def total_bytes(self, namespace: Optional[str] = None) -> int:
        total = 0
        for path in self._entry_paths(namespace):
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                pass  # concurrently evicted
        return total

    # -- eviction ----------------------------------------------------------------

    def evict_to_budget(self) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Recency is mtime: publishes and successful reads both refresh it,
        so a warm working set survives while cold sweep residue goes
        first. Entries in :data:`PROTECTED_NAMESPACES` are never
        candidates (and do not count toward the budget): a size cap may
        shed recomputable cache entries, never live job records.
        Concurrent evictors racing over the same files are safe — an
        already-gone entry is simply skipped. Returns how many entries
        this call evicted.
        """
        if self.max_bytes is None:
            return 0
        entries = []
        total = 0
        for space in self._namespace_dirs():
            if space.name in self.PROTECTED_NAMESPACES:
                continue
            for path in self._entry_paths(space.name):
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for _mtime, size, path in sorted(entries, key=lambda e: (e[0], e[2])):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # another process evicted it first
            total -= size
            evicted += 1
            self.counters.add("cache.evictions")
            self.counters.add("cache.evicted_bytes", size)
        return evicted

    def sweep_aged(self, max_age_s: float,
                   namespace: Optional[str] = None,
                   exempt: Collection[str] = ()) -> int:
        """Delete entries whose mtime is older than ``max_age_s`` seconds.

        The TTL companion to the size-cap sweep: where
        :meth:`evict_to_budget` sheds by recency under pressure, this
        sheds by *age* regardless of pressure — it is how lifecycle
        owners (the serve watchdog's terminal-history GC, ``repro jobs
        gc``) bound a protected namespace the LRU sweep must not touch.
        ``exempt`` keys are never deleted whatever their age — the
        caller's way of shielding live records. Returns how many entries
        were removed.
        """
        cutoff = time.time() - max_age_s
        exempt = set(exempt)
        removed = 0
        for path in list(self._entry_paths(namespace)):
            if path.name[:-len(self.SUFFIX)] in exempt:
                continue
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except FileNotFoundError:
                continue  # concurrently removed
            removed += 1
        return removed


def open_store(root: Optional[Path] = None,
               max_mb: Optional[float] = None,
               counters: Optional[Counters] = None) -> ShardedStore:
    """Open the shared store the CLI and the server front-ends use.

    ``root`` defaults to the shared cache root (``.repro-cache/`` or
    ``$REPRO_CACHE_DIR``); ``max_mb`` is the explicit size cap in MB
    (``--cache-max-mb``), falling back to ``$REPRO_CACHE_MAX_MB``.
    """
    return ShardedStore(root if root is None else Path(root),
                        max_bytes=cache_budget_bytes(max_mb),
                        counters=counters)
