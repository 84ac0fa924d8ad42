"""Code-version digests and cache locations shared by every on-disk cache.

The evaluation result cache (:mod:`repro.eval.cache`) keys entries by
"what code produced this". It lives above this leaf module, so the digest
of the ``repro`` source tree and the resolution of the cache root directory
are defined here, below everything. Cache schemas reach these through
the store's key model (:mod:`repro.store.keys`), which re-exports them —
this module is the physical home (the leaf the store builds on), that one
is the front door.

The digest covers *every* ``repro`` source file — simulator, workloads,
the structure layer, the harness — so any edit invalidates every cached
entry rather than silently serving stale numbers. This is the conservative
choice: a cache must never survive a change that could alter results.
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path
from typing import Optional


def source_files(package_root: Optional[Path] = None) -> list[Path]:
    """Every ``repro`` source file covered by the code-version digest.

    Defaults to the installed ``repro`` package root; tests pass a synthetic
    tree to prove specific subpackages (e.g. ``repro.machine`` or
    ``repro.graph``) participate in cache invalidation.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parents[1]
    return sorted(package_root.rglob("*.py"))


def digest_tree(package_root: Optional[Path] = None) -> str:
    """Digest of every source file under ``package_root`` (path + bytes).

    One incremental SHA-256 over each file's relative path and bytes,
    each prefixed by its length, so no part can pass for its neighbour
    and no copy of the tree is held at once.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for source in source_files(package_root):
        for part in (source.relative_to(package_root).as_posix().encode(),
                     source.read_bytes()):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file, stable within one checkout.

    Any edit to the simulator — including the :mod:`repro.machine`
    composition layer and the :mod:`repro.graph` structure layer — the
    workloads, or the harness changes this value and thereby invalidates
    every on-disk cache entry.
    """
    return digest_tree()


def default_cache_root() -> Path:
    """Resolve the on-disk cache directory.

    ``.repro-cache/`` at the repository root (next to ``pyproject.toml``),
    or ``~/.cache/repro-eval`` for installed copies; the
    ``REPRO_CACHE_DIR`` environment variable overrides both.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "pyproject.toml").exists():
        return repo_root / ".repro-cache"
    return Path.home() / ".cache" / "repro-eval"
