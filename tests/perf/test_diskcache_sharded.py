"""Tests for the sharded disk-cache layout.

Covers the satellite checklist explicitly: concurrent writers across
shards, torn-write recovery per shard, and transparent migration from
the legacy flat (single-directory) layout — plus per-shard eviction
budgets and the configuration plumbing.
"""

from __future__ import annotations

import threading

import pytest

from repro.perf.cache import attach_disk_cache, detach_disk_cache
from repro.perf.diskcache import _SHARD_PREFIX, DiskCache


class TestShardedLayout:
    def test_shards_create_directories(self, tmp_path):
        cache = DiskCache(tmp_path, shards=4)
        names = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert names == [f"{_SHARD_PREFIX}{i:02x}" for i in range(4)]
        assert cache.stats()["shards"] == 4

    def test_single_shard_is_legacy_layout(self, tmp_path):
        cache = DiskCache(tmp_path, shards=1)
        cache.put(("k",), "v")
        hexkey = cache.key_hex(("k",))
        # entry sits directly under <root>/<hex[:2]>/, no shard directory
        assert (tmp_path / hexkey[:2] / f"{hexkey}.pkl").exists()
        assert not list(tmp_path.glob(f"{_SHARD_PREFIX}*"))

    def test_entries_spread_across_shards(self, tmp_path):
        cache = DiskCache(tmp_path, shards=8)
        for i in range(64):
            cache.put(("key", i), i)
        populated = sum(
            1
            for d in tmp_path.glob(f"{_SHARD_PREFIX}*")
            if any(d.glob("*/*.pkl"))
        )
        assert populated > 1  # 64 blake2b digests never land in one shard
        assert len(cache) == 64
        for i in range(64):
            assert cache.get(("key", i)) == (True, i)

    def test_shard_count_validated(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path, shards=0)
        with pytest.raises(ValueError):
            DiskCache(tmp_path, shards=257)


class TestConcurrentWriters:
    def test_parallel_writers_across_shards(self, tmp_path):
        cache = DiskCache(tmp_path, shards=8)
        per_thread, threads = 50, 6
        errors: list[Exception] = []

        def writer(tid: int) -> None:
            try:
                for i in range(per_thread):
                    key = ("w", tid, i)
                    assert cache.put(key, (tid, i))
                    hit, value = cache.get(key)
                    assert hit and value == (tid, i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(tid,)) for tid in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        assert cache.stats()["errors"] == 0
        assert len(cache) == per_thread * threads
        # every entry is still readable after the storm
        for tid in range(threads):
            for i in range(per_thread):
                assert cache.get(("w", tid, i)) == (True, (tid, i))


class TestTornWrites:
    def test_truncated_entry_is_a_healed_miss_per_shard(self, tmp_path):
        cache = DiskCache(tmp_path, shards=4)
        for i in range(16):
            cache.put(("t", i), list(range(i)))
        victim_key = ("t", 3)
        path = cache._path_for(cache.key_hex(victim_key))
        path.write_bytes(path.read_bytes()[:7])  # simulate a torn write
        hit, value = cache.get(victim_key)
        assert not hit and value is None
        assert not path.exists()  # bad entry removed so the slot heals
        assert cache.stats()["errors"] == 1
        # the other shards (and the rest of this one) are untouched
        for i in range(16):
            if i == 3:
                continue
            assert cache.get(("t", i)) == (True, list(range(i)))

    def test_stale_tmp_files_swept_per_shard(self, tmp_path):
        cache = DiskCache(tmp_path, shards=2)
        stale = cache._shards[1].directory / "tmp.999.1"
        stale.write_bytes(b"half-written")
        import os
        import time

        old = time.time() - 3600
        os.utime(stale, (old, old))
        DiskCache(tmp_path, shards=2)
        assert not stale.exists()


class TestMigration:
    def test_flat_store_migrates_to_sharded(self, tmp_path):
        flat = DiskCache(tmp_path, shards=1)
        for i in range(20):
            flat.put(("m", i), {"i": i})
        sharded = DiskCache(tmp_path, shards=8)
        assert sharded.migrated == 20
        assert sharded.stats()["migrated"] == 20
        for i in range(20):
            assert sharded.get(("m", i)) == (True, {"i": i})
        # the legacy fan-out directories at the root are drained away
        from repro.perf.diskcache import _is_legacy_fanout

        leftovers = [
            p for p in tmp_path.iterdir() if p.is_dir() and _is_legacy_fanout(p.name)
        ]
        assert leftovers == []

    def test_sharded_store_migrates_back_to_flat(self, tmp_path):
        sharded = DiskCache(tmp_path, shards=8)
        for i in range(12):
            sharded.put(("b", i), i * i)
        flat = DiskCache(tmp_path, shards=1)
        assert flat.migrated == 12
        for i in range(12):
            assert flat.get(("b", i)) == (True, i * i)
        assert not list(tmp_path.glob(f"{_SHARD_PREFIX}*"))

    def test_open_handle_keeps_writing_after_another_migrates(self, tmp_path):
        sharded = DiskCache(tmp_path, shards=8)
        DiskCache(tmp_path, shards=1)  # migrates the shard directories away
        assert all(sharded.put(("late", i), i) for i in range(20))
        assert sharded.stats()["errors"] == 0

    def test_resharding_between_counts(self, tmp_path):
        four = DiskCache(tmp_path, shards=4)
        for i in range(15):
            four.put(("r", i), i)
        two = DiskCache(tmp_path, shards=2)
        # only entries homed in shard-02/shard-03 needed to move
        assert 0 < two.migrated <= 15
        for i in range(15):
            assert two.get(("r", i)) == (True, i)

    def test_migration_preserves_values_bit_for_bit(self, tmp_path):
        import numpy as np

        flat = DiskCache(tmp_path, shards=1)
        array = np.linspace(0.0, 5.0, 1001)
        flat.put(("arr",), array)
        sharded = DiskCache(tmp_path, shards=16)
        hit, value = sharded.get(("arr",))
        assert hit
        np.testing.assert_array_equal(value, array)

    def test_legacy_directory_vanishing_mid_migration(self, tmp_path, monkeypatch):
        # pool workers attach one flat store with shards at the same time,
        # so a rival migrator can prune a legacy directory between this
        # handle's listing and its scan; the attach must still succeed
        import os
        from pathlib import Path

        from repro.perf.diskcache import _is_legacy_fanout

        flat = DiskCache(tmp_path, shards=1)
        for i in range(40):
            flat.put(("c", i), i)
        real_scandir = os.scandir

        def scandir(path):
            path = Path(path)
            if path.parent == tmp_path and _is_legacy_fanout(path.name):
                raise FileNotFoundError(path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        assert DiskCache(tmp_path, shards=4).migrated == 0
        monkeypatch.undo()
        # nothing was lost: the next attach finds and migrates every entry
        sharded = DiskCache(tmp_path, shards=4)
        assert sharded.migrated == 40
        for i in range(40):
            assert sharded.get(("c", i)) == (True, i)


class TestPerShardEviction:
    def test_eviction_budget_is_per_shard(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=20_000, shards=4)
        payload = "x" * 1000
        for i in range(200):
            cache.put(("e", i), payload)
        stats = cache.stats()
        assert stats["evictions"] > 0
        # each shard respects its own budget (max_bytes / shards)
        for shard in cache._shards:
            resident = sum(s for _, s, _ in cache._shard_entries(shard))
            assert resident <= cache.max_bytes // cache.shards

    def test_eviction_keeps_other_shards_intact(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1_000_000, shards=2)
        # place one tiny entry, then overflow the *other* shard only
        keys = [("probe", i) for i in range(50)]
        probe = next(k for k in keys if cache._shard_for(cache.key_hex(k)) is cache._shards[0])
        cache.put(probe, "keep me")
        big = "y" * 400_000
        stuffed = 0
        for i in range(30):
            key = ("stuff", i)
            if cache._shard_for(cache.key_hex(key)) is cache._shards[1]:
                cache.put(key, big)
                stuffed += 1
        assert stuffed > 1  # enough volume to trigger shard-1 eviction
        assert cache.stats()["evictions"] > 0
        assert cache.get(probe) == (True, "keep me")


class TestConfiguration:
    def test_attach_disk_cache_shards(self, tmp_path):
        try:
            cache = attach_disk_cache(tmp_path, shards=4)
            assert cache.shards == 4
            assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
                f"{_SHARD_PREFIX}{i:02x}" for i in range(4)
            ]
        finally:
            detach_disk_cache()

    def test_attach_disk_cache_default_stays_flat(self, tmp_path):
        try:
            cache = attach_disk_cache(tmp_path)
            assert cache.shards == 1
        finally:
            detach_disk_cache()
