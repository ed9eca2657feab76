"""Tests for the persistent on-disk kernel cache.

Covers the satellite checklist explicitly: LRU eviction order, crash
simulation via truncated files, and concurrent writers — plus the
integration under the in-memory level and the metrics publication.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import repro.perf as perf
from repro.obs.metrics import registry
from repro.perf.cache import kernel_cache
from repro.perf.diskcache import DiskCache


def entry_path(cache: DiskCache, key: tuple):
    """Filesystem path of *key*'s entry."""
    return cache._path_for(cache.key_hex(key))


def _put_all(directory: str, keys: list[tuple], barrier, results) -> None:
    """Worker: once every worker is ready, write *keys* into a 1-byte
    store; reports its error count on *results*."""
    cache = DiskCache(directory, max_bytes=1)
    barrier.wait(timeout=60)
    for key in keys:
        cache.put(key, key)
    results.put(cache.stats()["errors"])


class TestDiskCacheBasics:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("op", b"digest", 3)
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.put(key, {"answer": 42})
        hit, value = cache.get(key)
        assert hit and value == {"answer": 42}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["writes"] == 1

    def test_numpy_values_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        array = np.linspace(0.0, 1.0, 257)
        cache.put(("arr",), array)
        hit, value = cache.get(("arr",))
        assert hit
        np.testing.assert_array_equal(value, array)

    def test_distinct_keys_do_not_alias(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("op", 1), "one")
        cache.put(("op", 2), "two")
        assert cache.get(("op", 1)) == (True, "one")
        assert cache.get(("op", 2)) == (True, "two")
        assert len(cache) == 2

    def test_persistence_across_instances(self, tmp_path):
        DiskCache(tmp_path).put(("k",), [1, 2, 3])
        reopened = DiskCache(tmp_path)
        assert reopened.get(("k",)) == (True, [1, 2, 3])

    def test_unpicklable_value_is_swallowed(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert not cache.put(("bad",), lambda: None)  # lambdas don't pickle
        assert cache.stats()["errors"] == 1
        assert cache.get(("bad",))[0] is False


class TestEviction:
    def test_lru_eviction_order(self, tmp_path):
        payload = b"x" * 4096
        cache = DiskCache(tmp_path, max_bytes=3 * 5000)
        now = time.time()
        # backdated, distinct mtimes even on coarse-granularity filesystems
        for age, name in ((100, "a"), (99, "b"), (98, "c")):
            assert cache.put((name,), payload)
            os.utime(entry_path(cache, (name,)), (now - age, now - age))
        # touch "a" so "b" becomes the least recently used
        os.utime(entry_path(cache, ("a",)), (now - 50, now - 50))
        assert cache.put(("d",), payload)  # pushes the store over the cap
        assert cache.get(("b",))[0] is False, "LRU entry should be evicted"
        assert cache.get(("a",))[0] is True
        assert cache.get(("d",))[0] is True
        assert cache.stats()["evictions"] >= 1

    def test_eviction_keeps_store_under_cap(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10_000)
        for i in range(20):
            cache.put((i,), b"y" * 2048)
        assert cache._scan_bytes() <= 10_000

    def test_eviction_leaves_no_empty_fanout_directory(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=5_000)
        for i in range(300):
            cache.put(("e", i), b"z" * 1000)
        assert cache.stats()["evictions"] > 250
        fanouts = [d for d in tmp_path.iterdir() if d.is_dir()]
        assert fanouts
        assert all(any(d.iterdir()) for d in fanouts), "emptied fan-out left behind"


class TestCorruption:
    def test_truncated_file_reads_as_miss_and_heals(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("will-truncate",)
        cache.put(key, list(range(1000)))
        path = entry_path(cache, key)
        path.write_bytes(path.read_bytes()[:7])  # simulate a torn write
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.stats()["errors"] == 1
        assert not path.exists(), "corrupt entry must be removed"
        # the slot heals on the next write
        cache.put(key, "fresh")
        assert cache.get(key) == (True, "fresh")

    def test_garbage_bytes_read_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("garbage",)
        cache.put(key, "value")
        entry_path(cache, key).write_bytes(b"\x00\xffnot a pickle")
        assert cache.get(key)[0] is False

    def test_stale_tmp_files_are_swept(self, tmp_path):
        stale = tmp_path / "tmp.999.1"
        stale.write_bytes(b"half-written")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        DiskCache(tmp_path)
        assert not stale.exists()


class TestConcurrency:
    def test_concurrent_writers_and_readers(self, tmp_path):
        cache = DiskCache(tmp_path)
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(30):
                    key = ("shared", i % 7)
                    cache.put(key, {"worker": worker_id, "i": i % 7})
                    hit, value = cache.get(key)
                    if hit:
                        assert value["i"] == i % 7
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats()["errors"] == 0
        for i in range(7):
            hit, value = cache.get(("shared", i))
            assert hit and value["i"] == i

    def test_processes_evicting_one_fanout_directory_lose_no_write(self, tmp_path):
        # every key lands in one fan-out directory of a 1-byte store, so each
        # put evicts everything and removes the directory another process
        # may be publishing into
        cache = DiskCache(tmp_path, max_bytes=1)
        candidates = (("k", i) for i in itertools.count())
        keys = list(itertools.islice(
            (k for k in candidates if cache.key_hex(k).startswith("00")), 96
        ))
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(4), ctx.Queue()
        workers = [
            ctx.Process(target=_put_all, args=(str(tmp_path), keys, barrier, results))
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        errors = [results.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert errors == [0, 0, 0, 0]

    def test_concurrent_instances_share_the_store(self, tmp_path):
        a = DiskCache(tmp_path)
        b = DiskCache(tmp_path)
        a.put(("x",), "from-a")
        assert b.get(("x",)) == (True, "from-a")


class TestKernelCacheIntegration:
    @pytest.fixture(autouse=True)
    def _detach(self):
        yield
        perf.configure(disk_dir=False)
        perf.reset()

    def test_disk_level_serves_after_memory_clear(self, tmp_path):
        perf.reset()
        perf.configure(disk_dir=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return np.arange(5.0)

        key = ("test.op", b"k1")
        first = kernel_cache.get_or_compute(key, compute, copy=True)
        perf.clear_cache()  # drop the memory level only
        second = kernel_cache.get_or_compute(key, compute, copy=True)
        np.testing.assert_array_equal(first, second)
        assert len(calls) == 1, "disk hit must not recompute"
        assert kernel_cache.stats()["disk"]["hits"] == 1

    def test_disabled_cache_bypasses_disk_too(self, tmp_path):
        perf.reset()
        perf.configure(disk_dir=tmp_path, enabled=False)
        calls = []
        key = ("test.op", b"k2")
        kernel_cache.get_or_compute(key, lambda: calls.append(1) or 1)
        kernel_cache.get_or_compute(key, lambda: calls.append(1) or 1)
        assert len(calls) == 2
        perf.configure(enabled=True)

    def test_stats_and_metrics_publication(self, tmp_path):
        perf.reset()
        perf.configure(disk_dir=tmp_path)
        kernel_cache.get_or_compute(("test.op", b"k3"), lambda: 7)
        stats = perf.cache_stats()
        assert stats["disk"]["writes"] == 1
        snapshot = registry.snapshot()
        names = {c["name"] for c in snapshot["counters"]}
        assert {"diskcache.hits", "diskcache.misses", "diskcache.writes"} <= names
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["diskcache.entries"] == 1

    def test_reset_keeps_disk_entries(self, tmp_path):
        perf.configure(disk_dir=tmp_path)
        kernel_cache.get_or_compute(("test.op", b"k4"), lambda: 9)
        perf.reset()
        assert kernel_cache.disk is not None
        assert len(kernel_cache.disk) == 1
        assert kernel_cache.disk.stats()["writes"] == 0  # counters zeroed
