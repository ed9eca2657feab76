"""Content-addressed memoization of pure curve kernels.

Design-space sweeps (frequency/buffer ablations, chain analyses, DVS-style
explorations) re-evaluate the same min-plus convolutions and workload-curve
compositions thousands of times with identical inputs.  All of those
operations are *pure*: the result depends only on the mathematical content
of the operands.  This module provides a process-wide LRU cache keyed by
content digests of the operands, so a repeated call returns the previously
constructed (immutable) result object instead of re-running the kernel.

Soundness
---------
Keys are ``blake2b`` digests of the exact binary representation of the
operand arrays (plus the operation name and any scalar parameters), so a
hit is only possible for bit-identical inputs — two curves that are merely
``allclose`` miss the cache and are recomputed.  Cached values are either
immutable curve objects (safe to share) or arrays that the call sites copy
on the way out (see :func:`KernelCache.get_or_compute`'s ``copy`` flag).

The cache can be disabled (``configure(enabled=False)``) — every kernel
then recomputes from scratch and, by purity, must return identical values;
the differential-oracle suite asserts exactly that.

Persistence
-----------
An optional second level — :class:`repro.perf.diskcache.DiskCache` — can
be attached with :func:`attach_disk_cache` (or ``configure(disk_dir=...)``,
or the CLI's ``--cache-dir``).  On an in-memory miss the disk store is
consulted before computing; disk hits are promoted into memory, and fresh
computations are written through.  Because disk keys are content digests
of the same cache keys, a warm cache directory lets a brand-new process
(or every worker of a parallel sweep) skip the min-plus convolutions of
any earlier run.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "KernelCache",
    "kernel_cache",
    "configure",
    "clear",
    "stats",
    "digest_of",
    "attach_disk_cache",
    "detach_disk_cache",
]

_SENTINEL = object()

#: Default bound on resident entries; evicts least-recently-used beyond it.
DEFAULT_MAX_ENTRIES = 4096


def digest_of(*parts: Any) -> bytes:
    """Content digest of a mixed sequence of arrays / bytes / scalars.

    ndarray parts contribute their raw bytes (dtype and shape included, so
    an int64 grid never collides with a float64 one of equal bit pattern);
    everything else contributes its ``repr``.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.digest()


class KernelCache:
    """A bounded LRU memo table with hit/miss/eviction accounting.

    Thread-safe for the lookup/insert bookkeeping; a missed computation
    runs outside the lock (two racing threads may both compute, last write
    wins — harmless for pure kernels).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = int(max_entries)
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        #: Optional persistent second level (see :mod:`repro.perf.diskcache`).
        self.disk = None
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._per_op: dict[str, dict[str, int]] = {}
        self._per_op_bypasses: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- core ------------------------------------------------------------------
    def get_or_compute(
        self, key: tuple, compute: Callable[[], Any], *, copy: bool = False
    ) -> Any:
        """Return the cached value for *key* or compute, store, and return it.

        ``key[0]`` must be the operation name (used for per-op counters).
        With ``copy=True`` the value is an ndarray and a defensive copy is
        returned on both hits and misses, so callers can never mutate the
        cached master.
        """
        op = key[0]
        if not self.enabled:
            with self._lock:
                self.bypasses += 1
                self._per_op_bypasses[op] = self._per_op_bypasses.get(op, 0) + 1
            value = compute()
            return value.copy() if copy else value
        with self._lock:
            value = self._store.get(key, _SENTINEL)
            counters = self._per_op.setdefault(op, {"hits": 0, "misses": 0})
            if value is not _SENTINEL:
                self.hits += 1
                counters["hits"] += 1
                self._store.move_to_end(key)
                return value.copy() if copy else value
            self.misses += 1
            counters["misses"] += 1
            disk = self.disk
        value = _SENTINEL
        if disk is not None:
            found, stored = disk.get(key)
            if found:
                value = stored
        if value is _SENTINEL:
            value = compute()
            if disk is not None:
                disk.put(key, value)
        with self._lock:
            self._store[key] = value
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1
        return value.copy() if copy else value

    # -- management ------------------------------------------------------------
    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_counters`)."""
        with self._lock:
            self._store.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction/bypass counters."""
        with self._lock:
            self.hits = self.misses = self.evictions = self.bypasses = 0
            self._per_op.clear()
            self._per_op_bypasses.clear()

    def stats(self) -> dict[str, Any]:
        """Snapshot of the accounting state.

        ``calls`` counts every :meth:`get_or_compute` with the cache
        enabled, so ``hits + misses == calls`` always holds.  ``per_op``
        splits hits and misses by operation name, ``per_op_bypasses`` the
        lookups made while the cache was disabled.
        """
        with self._lock:
            out = {
                "enabled": self.enabled,
                "entries": len(self._store),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "calls": self.hits + self.misses,
                "evictions": self.evictions,
                "bypasses": self.bypasses,
                "per_op": {op: dict(c) for op, c in self._per_op.items()},
                "per_op_bypasses": dict(self._per_op_bypasses),
            }
            disk = self.disk
        if disk is not None:
            out["disk"] = disk.stats()
        return out

    def __len__(self) -> int:
        return len(self._store)


#: The process-wide cache every kernel routes through.
kernel_cache = KernelCache()


def _publish_cache_metrics(registry) -> None:
    """Snapshot-time collector: mirror the cache accounting into the
    metrics registry (``cache.*`` series).

    The cache keeps its own integer counters on the lookup hot path;
    publishing at snapshot time gives the registry (and every exported
    ``--metrics-out``/manifest payload) the hit/miss/eviction/bypass
    totals without adding a second lock to every ``get_or_compute``.
    """
    stats_now = kernel_cache.stats()
    for key in ("hits", "misses", "evictions", "bypasses", "calls"):
        registry.counter(f"cache.{key}").set_total(stats_now[key])
    registry.gauge("cache.entries").set(stats_now["entries"])
    registry.gauge("cache.max_entries").set(stats_now["max_entries"])
    registry.gauge("cache.enabled").set(int(stats_now["enabled"]))
    per_op = stats_now["per_op"]
    for name, totals in (
        ("cache.op.hits", {op: c["hits"] for op, c in per_op.items()}),
        ("cache.op.misses", {op: c["misses"] for op, c in per_op.items()}),
        ("cache.op.bypasses", stats_now["per_op_bypasses"]),
    ):
        # an op the cache no longer counts (after a reset) reads 0; series
        # merged from other processes carry more labels and keep theirs
        for series in registry.series(name):
            if series.labels.keys() == {"op"} and series.labels["op"] not in totals:
                series.set_total(0)
        for op, count in totals.items():
            registry.counter(name, op=op).set_total(count)
    disk_stats = stats_now.get("disk")
    if disk_stats is not None:
        for key in ("hits", "misses", "writes", "evictions", "errors", "migrated"):
            registry.counter(f"diskcache.{key}").set_total(disk_stats[key])
        registry.gauge("diskcache.bytes").set(disk_stats["bytes"])
        registry.gauge("diskcache.entries").set(disk_stats["entries"])
        registry.gauge("diskcache.max_bytes").set(disk_stats["max_bytes"])
        registry.gauge("diskcache.shards").set(disk_stats["shards"])


def _register_collector() -> None:
    from repro.obs.metrics import registry

    registry.register_collector(_publish_cache_metrics)


_register_collector()


def configure(
    *,
    enabled: bool | None = None,
    max_entries: int | None = None,
    disk_dir: Any = None,
    disk_max_bytes: int | None = None,
    disk_shards: int | None = None,
) -> None:
    """Adjust the global cache: switch it on/off and/or resize it.

    Disabling does not drop existing entries — re-enabling resumes serving
    them.  Shrinking evicts LRU entries down to the new bound on the next
    insert.  ``disk_dir`` attaches a persistent second level at that
    directory (see :func:`attach_disk_cache`), split into ``disk_shards``
    independently-locked shard directories; pass ``disk_dir=False`` to
    detach it.
    """
    if enabled is not None:
        kernel_cache.enabled = bool(enabled)
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        kernel_cache.max_entries = int(max_entries)
    if disk_dir is False:
        detach_disk_cache()
    elif disk_dir is not None:
        attach_disk_cache(disk_dir, max_bytes=disk_max_bytes, shards=disk_shards)


def attach_disk_cache(directory, *, max_bytes: int | None = None, shards: int | None = None):
    """Attach (or replace) the persistent second level of the global cache.

    Creates *directory* if needed and returns the attached
    :class:`~repro.perf.diskcache.DiskCache`.  Safe to call in every
    process of a worker pool — the store is shared through the filesystem.
    ``shards`` splits the store into that many independently-locked
    directories (default 1, the historical flat layout; an existing flat
    store is migrated in place when a shard count is first requested).
    """
    from repro.perf.diskcache import DEFAULT_MAX_BYTES, DiskCache

    disk = DiskCache(
        directory, max_bytes=max_bytes or DEFAULT_MAX_BYTES, shards=shards or 1
    )
    kernel_cache.disk = disk
    return disk


def detach_disk_cache() -> None:
    """Detach the persistent level (on-disk entries are left in place)."""
    kernel_cache.disk = None


def clear() -> None:
    """Drop all cached results from the global cache."""
    kernel_cache.clear()


def stats() -> dict[str, Any]:
    """Accounting snapshot of the global cache."""
    return kernel_cache.stats()
