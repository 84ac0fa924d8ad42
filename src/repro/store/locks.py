"""Per-shard advisory file locks.

Concurrent processes share the store through the filesystem, and the
atomic write-temp-then-rename publish already guarantees readers never
see a torn entry. The locks serialize the writers of one shard, so two
processes publishing into it never churn each other's temp files.

Locks are ``fcntl.flock`` on a ``.lock`` file per shard directory —
advisory, crash-safe (the OS drops them with the process, so no stale
lock files survive a kill), and cheap: the uncontended path is one
non-blocking ``flock`` call. A contended acquisition counts one
``cache.lock_waits``, then blocks. On platforms without ``fcntl`` the
lock degrades to a no-op — the rename publish keeps single-entry
operations safe.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

try:  # POSIX; on other platforms the lock degrades to a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.util.counters import Counters

#: Name of the lock file inside each shard directory.
LOCK_FILENAME = ".lock"


class ShardLock:
    """Advisory exclusive lock over one shard directory (a context manager).

    Reentrant within a single instance is *not* supported — hold at most
    one ``with`` per instance at a time. Distinct instances (even in one
    process) contend with each other.
    """

    def __init__(self, shard_dir: Path,
                 counters: Optional[Counters] = None) -> None:
        self.path = Path(shard_dir) / LOCK_FILENAME
        self.counters = counters if counters is not None else Counters()
        self._fd: int | None = None

    def acquire(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            # Someone else holds the shard: record the wait, then block.
            self.counters.add("cache.lock_waits")
            fcntl.flock(self._fd, fcntl.LOCK_EX)

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ShardLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
