"""Persistent, content-addressed, *sharded* on-disk kernel cache.

The in-memory :class:`~repro.perf.cache.KernelCache` dies with the process,
so every new run — and every worker of a parallel sweep, and every client
of the analysis service — pays the min-plus convolutions again.  This
module adds a second cache level that survives: a directory of pickled
kernel results addressed by the blake2b content digest of the operation
key, layered *under* the in-memory LRU (memory is consulted first; a disk
hit is promoted into memory).

Design
------
* **Keys** — :func:`repro.perf.cache.digest_of` over the in-memory cache
  key (operation name, operand digests, scalar parameters), salted with a
  format tag so an on-disk layout change can never alias old entries.
  Hits require bit-identical inputs, exactly like the memory level.
* **Shards** — the store is split into ``shards`` independent directories
  selected by the leading hex digits of the key digest.  Each shard has
  its own lock, its own byte accounting, and its own mtime-LRU eviction
  over ``max_bytes / shards``, so many concurrent clients (the analysis
  service's evaluator pool, a 16-worker sweep) contend on 1/N of the
  store instead of one directory.  ``shards=1`` reproduces the historical
  single-directory layout bit-for-bit.
* **Transparent migration** — a store written by an older (or
  differently-sharded) build is re-homed on construction: entries found
  in the flat legacy layout (``<hex[:2]>/<key>.pkl`` at the root) or in
  shard directories of a different count are moved — atomic
  ``os.replace``, concurrency-tolerant — into the layout of the opening
  handle.  Keys are layout-independent (the digest addresses the entry,
  the layout only places it), so no entry is ever lost or recomputed.
* **Atomic writes** — values are pickled to a private temporary file in
  the target shard and published with :func:`os.replace`, so readers
  never observe a half-written entry, even with many concurrent writer
  processes.  Leftover temporaries from crashed writers are swept on
  construction.
* **LRU eviction** — per shard: access bumps the file mtime, and when an
  insert pushes a shard over its budget the oldest-mtime entries *of that
  shard* are deleted first, under the shard lock, and every fan-out
  directory they leave empty is removed, so later scans never walk empty
  directories.  Eviction races between processes are tolerated (a
  concurrently-deleted file is simply skipped, and a write whose fan-out
  directory another process removed re-creates it and publishes again).
* **Corruption tolerance** — a read that fails for any reason (truncated
  file, bad pickle, wrong format tag) counts as a miss, removes the bad
  entry, and increments the ``errors`` counter; it never propagates.

Counters (hits/misses/writes/evictions/errors/migrations and resident
bytes) are published to the :mod:`repro.obs` metrics registry as
``diskcache.*`` series by the collector in :mod:`repro.perf.cache`.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any

from repro.perf import cache as _memcache

__all__ = ["DiskCache", "DEFAULT_MAX_BYTES", "DEFAULT_SHARDS", "FORMAT_TAG"]

#: Default size cap of the on-disk store (bytes), across all shards.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Default shard count of :func:`repro.perf.cache.attach_disk_cache` when
#: a shard count is requested but not specified.
DEFAULT_SHARDS = 8

#: Salt mixed into every key digest; bump when the *entry* format changes
#: (the shard layout is migrated, not versioned — keys are layout-free).
FORMAT_TAG = f"repro.diskcache/1:pickle{pickle.HIGHEST_PROTOCOL}"

#: Temporary files older than this (seconds) are swept at construction.
_STALE_TMP_S = 300.0

#: Directory-name prefix of shard directories (``shard-00`` … ``shard-ff``).
_SHARD_PREFIX = "shard-"


class _Shard:
    """One independent slice of the store: a directory, a lock, a budget."""

    __slots__ = ("directory", "max_bytes", "lock", "bytes")

    def __init__(self, directory: Path, max_bytes: int):
        self.directory = directory
        self.max_bytes = max_bytes
        self.lock = threading.Lock()
        self.bytes = 0


def _is_legacy_fanout(name: str) -> bool:
    """True for the two-hex-digit fan-out directories of the flat layout."""
    return len(name) == 2 and all(c in "0123456789abcdef" for c in name)


class DiskCache:
    """A size-capped, content-addressed, sharded store of pickled results.

    Thread-safe within a process and safe to share between processes
    through the filesystem: writes are atomic renames and eviction
    tolerates concurrent deletion.  Size accounting is per-process and
    therefore approximate under concurrent writers — the cap is a target,
    not an invariant, and each writer enforces it against its own view.

    All clients of one directory should open it with the same ``shards``
    count; a handle with a different count migrates the layout on
    construction (entries are moved, never dropped), so a mixed fleet
    converges to the most recently opened layout instead of corrupting.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
        *,
        shards: int = 1,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if not 1 <= shards <= 256:
            raise ValueError("shards must be in [1, 256]")
        self.directory = Path(directory)
        self.max_bytes = int(max_bytes)
        self.shards = int(shards)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.errors = 0
        self.migrated = 0
        self._lock = threading.Lock()
        self._tmp_counter = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        per_shard = max(1, self.max_bytes // self.shards)
        if self.shards == 1:
            dirs = [self.directory]
        else:
            dirs = [
                self.directory / f"{_SHARD_PREFIX}{i:02x}" for i in range(self.shards)
            ]
            for d in dirs:
                d.mkdir(exist_ok=True)
        self._shards = [_Shard(d, per_shard) for d in dirs]
        self._sweep_stale_tmp()
        self._migrate_layout()
        for shard in self._shards:
            shard.bytes = sum(s for _, s, _ in self._shard_entries(shard))

    # -- keys -------------------------------------------------------------------
    @staticmethod
    def key_hex(key: tuple) -> str:
        """Hex digest addressing *key* on disk (format-tag salted)."""
        return _memcache.digest_of(FORMAT_TAG, *key).hex()

    def _shard_for(self, hexkey: str) -> _Shard:
        """The shard owning *hexkey* — selected by the leading key prefix,
        so the placement is stable for any fixed shard count."""
        return self._shards[int(hexkey[:4], 16) % self.shards]

    def _path_for(self, hexkey: str) -> Path:
        return self._shard_for(hexkey).directory / hexkey[:2] / f"{hexkey}.pkl"

    # -- read -------------------------------------------------------------------
    def get(self, key: tuple) -> tuple[bool, Any]:
        """Look *key* up; returns ``(hit, value)``.

        A hit refreshes the entry's mtime (the LRU clock).  Any read
        failure — missing, truncated, or unpicklable file — is a miss.
        """
        path = self._path_for(self.key_hex(key))
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return False, None
        except Exception:
            # corrupt entry: drop it so the slot heals on the next write
            with self._lock:
                self.misses += 1
                self.errors += 1
            self._remove(path)
            return False, None
        with self._lock:
            self.hits += 1
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:
            pass
        return True, value

    # -- write ------------------------------------------------------------------
    def put(self, key: tuple, value: Any) -> bool:
        """Persist *value* under *key*; returns True if the entry landed.

        Failures (unpicklable value, full disk) are counted and swallowed —
        the cache is an accelerator, never a correctness dependency.  The
        write and any eviction it triggers run under the owning shard's
        lock only, so writers to other shards proceed in parallel.
        """
        hexkey = self.key_hex(key)
        shard = self._shard_for(hexkey)
        path = shard.directory / hexkey[:2] / f"{hexkey}.pkl"
        with self._lock:
            self._tmp_counter += 1
            tmp = shard.directory / f"tmp.{os.getpid()}.{self._tmp_counter}"
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.errors += 1
            return False
        with shard.lock:
            try:
                # a handle with another shard count may have migrated the
                # shard directory away; eviction never removes it
                shard.directory.mkdir(parents=True, exist_ok=True)
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                self._publish(tmp, path)
            except Exception:
                with self._lock:
                    self.errors += 1
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                return False
            shard.bytes += len(payload)
            if shard.bytes > shard.max_bytes:
                self._evict_shard(shard)
        with self._lock:
            self.writes += 1
        return True

    @staticmethod
    def _publish(tmp: Path, path: Path) -> None:
        """Move *tmp* (in the shard directory) to *path*, creating the
        fan-out directory as often as another process's eviction removes
        it before the move lands."""
        while True:
            try:
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if not tmp.exists():
                    raise
            try:
                path.parent.mkdir()
            except FileExistsError:
                pass

    # -- eviction ---------------------------------------------------------------
    def _shard_entries(self, shard: _Shard) -> list[tuple[float, int, Path]]:
        """One shard's resident entries as ``(mtime, size, path)``."""
        found = []
        try:
            subdirs = list(shard.directory.iterdir())
        except OSError:
            return found
        for sub in subdirs:
            if not (sub.is_dir() and _is_legacy_fanout(sub.name)):
                continue
            try:  # another process's eviction may have emptied and removed it
                paths = list(sub.glob("*.pkl"))
            except OSError:
                continue
            for path in paths:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, stat.st_size, path))
        return found

    def _entries(self) -> list[tuple[float, int, Path]]:
        """All resident entries across every shard."""
        found: list[tuple[float, int, Path]] = []
        for shard in self._shards:
            found.extend(self._shard_entries(shard))
        return found

    def _evict_shard(self, shard: _Shard) -> None:
        """Delete oldest-mtime entries of *shard* until it fits its budget.

        Called with ``shard.lock`` held: the scan and the deletions only
        touch this shard's directory, so writers to other shards never
        wait on it.
        """
        entries = sorted(self._shard_entries(shard), key=lambda e: (e[0], e[2].name))
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= shard.max_bytes:
                break
            if self._remove(path):
                total -= size
                evicted += 1
                try:
                    path.parent.rmdir()
                except OSError:
                    pass  # the fan-out directory still holds entries
        shard.bytes = total
        with self._lock:
            self.evictions += evicted

    def _remove(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    # -- migration --------------------------------------------------------------
    def _migrate_layout(self) -> None:
        """Re-home entries written under a different layout.

        Two foreign sources are recognized: the flat legacy layout
        (``<hex[:2]>/<key>.pkl`` directly under the root — only foreign
        when this handle is sharded) and ``shard-XX`` directories beyond
        this handle's shard count (a store written with more shards).
        Every ``.pkl`` found there is moved to its home path with
        ``os.replace`` — a concurrent writer of the same key wins
        harmlessly, a concurrent migrator finds the file or its source gone.
        """
        sources: list[Path] = []
        try:
            root_children = list(self.directory.iterdir())
        except OSError:
            return
        for child in root_children:
            if not child.is_dir():
                continue
            if self.shards > 1 and _is_legacy_fanout(child.name):
                sources.append(child)
            elif child.name.startswith(_SHARD_PREFIX):
                try:
                    index = int(child.name[len(_SHARD_PREFIX):], 16)
                except ValueError:
                    continue
                if self.shards == 1 or index >= self.shards:
                    sources.append(child)
        moved = 0
        for source in sources:
            pattern = "*.pkl" if _is_legacy_fanout(source.name) else "*/*.pkl"
            try:  # a concurrent migrator may have drained and removed it
                paths = list(source.glob(pattern))
            except OSError:
                continue
            for path in paths:
                home = self._path_for(path.stem)
                if home == path:
                    continue
                try:
                    home.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(path, home)
                    moved += 1
                except OSError:
                    continue
            self._prune_empty(source)
        self.migrated = moved

    def _prune_empty(self, directory: Path) -> None:
        """Best-effort removal of a drained source directory tree (a
        concurrent migrator may have removed it already)."""
        try:
            subs = [sub for sub in directory.glob("*") if sub.is_dir()]
        except OSError:
            return
        for empty in subs + [directory]:
            try:
                empty.rmdir()
            except OSError:
                pass

    # -- management -------------------------------------------------------------
    def clear(self) -> None:
        """Delete every entry in every shard (counters are kept)."""
        for shard in self._shards:
            with shard.lock:
                for _, _, path in self._shard_entries(shard):
                    self._remove(path)
                shard.bytes = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss/write/eviction/error counters."""
        with self._lock:
            self.hits = self.misses = self.writes = 0
            self.evictions = self.errors = 0

    def stats(self) -> dict[str, Any]:
        """Snapshot of the accounting state (``bytes`` is the per-process
        running estimate; ``entries`` re-scans the directories)."""
        with self._lock:
            out = {
                "directory": str(self.directory),
                "max_bytes": self.max_bytes,
                "shards": self.shards,
                "bytes": sum(s.bytes for s in self._shards),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
                "errors": self.errors,
                "migrated": self.migrated,
            }
        out["entries"] = len(self._entries())
        return out

    # -- internals --------------------------------------------------------------
    def _scan_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def _sweep_stale_tmp(self) -> None:
        cutoff = time.time() - _STALE_TMP_S
        for shard in self._shards:
            for tmp in shard.directory.glob("tmp.*"):
                try:
                    if tmp.stat().st_mtime < cutoff:
                        tmp.unlink()
                except OSError:
                    continue

    def __len__(self) -> int:
        return len(self._entries())
