"""Disk layer of the artifact cache.

Artifacts live under one root directory (resolution order: explicit
``--cache-dir`` > ``REPRO_CACHE_DIR`` > ``.repro-cache/`` in the
current directory), sharded by content key::

    <root>/<kind>/<key[:2]>/<key>.json

Every file is a JSON envelope carrying a schema version, the kind and
the full key; a mismatch on any of them — or a file that fails to parse
at all (truncated write, disk corruption, a future format) — is treated
as a plain miss and the entry is dropped, so a poisoned cache can never
poison a result: the caller recomputes and overwrites.  Writes go
through a temporary file in the same directory followed by an atomic
:func:`os.replace`, so readers never observe a half-written artifact
even with concurrent campaign workers.

The module keeps one process-wide default cache (:func:`get_cache`,
reconfigured by the CLI via :func:`configure_cache`); hit/miss/byte
counters accumulate on each instance for run summaries.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

#: Bump when the envelope or any artifact payload changes shape *or
#: meaning* (v2: per-site profiler sampling substreams changed profile
#: reservoir contents without changing the profile key).
SCHEMA_VERSION = 2

#: Environment variable naming the cache root (CI, benchmarks, CLI).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Cache root: explicit argument > $REPRO_CACHE_DIR > .repro-cache."""
    if explicit:
        return Path(explicit)
    # Imported lazily: repro.core.__init__ pulls in modules that import
    # this package, so a top-level import would be circular.
    from ..core.env import env_str
    env = env_str(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


@dataclass
class CacheStats:
    """Counters one cache instance accumulates across a run."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Corrupted/mismatched files dropped (each also counts as a miss).
    evictions: int = 0

    def summary(self) -> str:
        """One line for run summaries: hits, misses, traffic."""
        return (
            f"artifact cache: {self.hits} hit{'s' if self.hits != 1 else ''}, "
            f"{self.misses} miss{'es' if self.misses != 1 else ''}, "
            f"{_human_bytes(self.bytes_read)} read, "
            f"{_human_bytes(self.bytes_written)} written"
        )


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


class ArtifactCache:
    """Content-addressed JSON artifact store with corruption fallback."""

    def __init__(self, root: str | os.PathLike | None = None, *,
                 enabled: bool = True):
        self.root = resolve_cache_dir(root)
        self.enabled = enabled
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def load(self, kind: str, key: str):
        """The stored payload, or None on any miss (absent, corrupt,
        wrong schema/kind/key)."""
        if not self.enabled:
            return None
        path = self.path_for(kind, key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            envelope = json.loads(raw)
            if (not isinstance(envelope, dict)
                    or envelope.get("schema") != SCHEMA_VERSION
                    or envelope.get("kind") != kind
                    or envelope.get("key") != key):
                raise ValueError("envelope mismatch")
            payload = envelope["payload"]
        except (ValueError, KeyError, TypeError):
            self._drop(path)
            self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(raw)
        return payload

    def store(self, kind: str, key: str, payload) -> bool:
        """Atomically persist a JSON-safe payload; False when disabled
        or the filesystem refuses (a read-only cache is not an error)."""
        if not self.enabled:
            return False
        path = self.path_for(kind, key)
        envelope = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        data = json.dumps(envelope, separators=(",", ":")).encode()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                self._drop(Path(tmp_name))
                raise
        except OSError:
            return False
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        return True

    def remove(self, kind: str, key: str) -> bool:
        """Drop one entry (e.g. a partial-shard checkpoint made obsolete
        by the merged campaign result).  Missing entries are not errors."""
        if not self.enabled:
            return False
        path = self.path_for(kind, key)
        existed = path.exists()
        self._drop(path)
        return existed

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` subcommand)
    # ------------------------------------------------------------------

    def _entries(self) -> list[tuple[str, Path, int, float]]:
        """(kind, path, size, mtime) of every stored artifact."""
        entries = []
        if not self.root.is_dir():
            return entries
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append(
                    (kind_dir.name, path, stat.st_size, stat.st_mtime)
                )
        return entries

    def disk_usage(self) -> dict[str, tuple[int, int]]:
        """Per-kind (entry count, total bytes) of the on-disk store."""
        usage: dict[str, tuple[int, int]] = {}
        for kind, _path, size, _mtime in self._entries():
            count, total = usage.get(kind, (0, 0))
            usage[kind] = (count + 1, total + size)
        return usage

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-written entries down to ``max_bytes``.

        Content-addressed entries are always safe to drop (the next run
        recomputes and rewrites).  Returns (entries removed, bytes
        freed).
        """
        entries = self._entries()
        total = sum(size for _k, _p, size, _m in entries)
        removed = freed = 0
        for _kind, path, size, _mtime in sorted(entries, key=lambda e: e[3]):
            if total - freed <= max_bytes:
                break
            self._drop(path)
            removed += 1
            freed += size
        return removed, freed

    def clear(self) -> int:
        """Remove every stored artifact; returns how many were removed."""
        removed = 0
        for _kind, path, _size, _mtime in self._entries():
            self._drop(path)
            removed += 1
        return removed


class _NullCache(ArtifactCache):
    """Disabled cache that never touches the filesystem."""

    def __init__(self):
        super().__init__(DEFAULT_CACHE_DIR, enabled=False)


# ---------------------------------------------------------------------------
# Process-wide default instance.

_DEFAULT: ArtifactCache | None = None


def get_cache() -> ArtifactCache:
    """The process-wide cache (created lazily from the environment)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ArtifactCache()
    return _DEFAULT


def configure_cache(root: str | os.PathLike | None = None, *,
                    enabled: bool = True) -> ArtifactCache:
    """Replace the process-wide cache (CLI flags, test fixtures)."""
    global _DEFAULT
    _DEFAULT = ArtifactCache(root, enabled=enabled) if enabled else _NullCache()
    return _DEFAULT
