"""Unit tests for object stores and the write-ahead log."""

import os
import stat

import pytest

from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.persistence.object_store import StoreError

pytestmark = pytest.mark.usefixtures("close_segmented_stores")


class TestMemoryStore:
    def test_put_get(self):
        store = MemoryStore()
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_get_missing(self):
        with pytest.raises(StoreError):
            MemoryStore().get("ghost")

    def test_overwrite(self):
        store = MemoryStore()
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2

    def test_remove(self):
        store = MemoryStore()
        store.put("k", 1)
        store.remove("k")
        assert not store.contains("k")
        with pytest.raises(StoreError):
            store.remove("k")

    def test_keys_and_len(self):
        store = MemoryStore()
        store.put("b", 1)
        store.put("a", 2)
        assert set(store.keys()) == {"a", "b"}
        assert len(store) == 2

    def test_get_or_default(self):
        store = MemoryStore()
        assert store.get_or("missing", 42) == 42
        store.put("k", 1)
        assert store.get_or("k", 42) == 1

    def test_values_are_isolated_copies(self):
        store = MemoryStore()
        original = {"list": [1]}
        store.put("k", original)
        original["list"].append(2)
        assert store.get("k") == {"list": [1]}
        fetched = store.get("k")
        fetched["list"].append(3)
        assert store.get("k") == {"list": [1]}

    def test_only_marshallable_values(self):
        store = MemoryStore()
        with pytest.raises(Exception):
            store.put("k", object())

    def test_items_iteration(self):
        store = MemoryStore()
        store.put("a", 1)
        assert dict(store.items()) == {"a": 1}

    def test_read_write_counters(self):
        store = MemoryStore()
        store.put("k", 1)
        store.get("k")
        assert store.writes == 1 and store.reads == 1


class TestFileStore:
    """The on-disk store, :class:`SegmentedFileStore`, through the plain
    :class:`ObjectStore` surface."""

    def test_roundtrip(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "store"))
        store.put("k", [1, "two", {"three": 3}])
        assert store.get("k") == [1, "two", {"three": 3}]

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        SegmentedFileStore(root).put("k", "persisted")
        assert SegmentedFileStore(root).get("k") == "persisted"

    def test_remove_and_keys(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "store"))
        store.put("a", 1)
        store.put("b", 2)
        assert store.keys() == ("a", "b")
        store.remove("a")
        assert store.keys() == ("b",)
        with pytest.raises(StoreError):
            store.get("a")

    def test_partial_write_never_tears_an_object(self, tmp_path):
        """Regression: a crash mid-put must not corrupt the entry.

        Simulate a crash after a *partial* append (the torn bytes a power
        cut leaves behind the last whole frame) and verify the entry
        still reads back the old value, and that the next put cuts the
        torn tail off instead of burying it.
        """
        root = str(tmp_path / "store")
        store = SegmentedFileStore(root)
        store.put("k", {"stable": True})
        store.close()
        frame = store._frame("k", False, store._marshaller.encode({"stable": False}))
        with open(store._segment_path(store._active_id), "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        reopened = SegmentedFileStore(root)
        assert reopened.get("k") == {"stable": True}
        assert reopened.keys() == ("k",)
        assert reopened.torn_frames_dropped == 1
        reopened.put("k", {"stable": "new"})
        assert reopened.get("k") == {"stable": "new"}
        again = SegmentedFileStore(root)
        assert again.get("k") == {"stable": "new"}
        assert again.torn_frames_dropped == 0

    def test_put_fsyncs_directory_entry(self, tmp_path, monkeypatch):
        """A segment file's directory entry is made durable when the file
        is created (first write, rollover, compaction) and only then: an
        append to an existing segment stays exactly one fsync."""
        import repro.persistence.object_store as mod

        synced = []
        real_fsync = mod.os.fsync

        def fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            return real_fsync(fd)

        monkeypatch.setattr(mod.os, "fsync", fsync)
        root = str(tmp_path / "store")
        store = SegmentedFileStore(root, segment_bytes=256, auto_compact_ratio=None)
        store.put("k", 1)
        assert synced == ["file", "dir"]  # first write creates the segment
        synced.clear()
        store.put_many({"a": 1, "b": 2})
        assert synced == ["file"]  # append to the existing segment
        synced.clear()
        store.close()
        SegmentedFileStore(root, segment_bytes=256).put("c", 3)
        # A reopened store first syncs the active segment and its entry
        # (a killed writer's appends may sit in the page cache only),
        # then appends to it.
        assert synced == ["file", "dir", "file"]
        synced.clear()
        store = SegmentedFileStore(root, segment_bytes=256, auto_compact_ratio=None)
        while len(store._segment_ids) == 1:
            store.put("hot", "x" * 64)
        synced.clear()
        store.put("hot", "rolled")
        assert synced == ["file", "dir"]  # the rollover's new segment
        synced.clear()
        removed = store.compact()
        assert removed == 2
        assert synced == ["file", "dir"]  # the compacted segment, before removal
        assert SegmentedFileStore(root).get("hot") == "rolled"


class TestWriteAheadLog:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        r1 = wal.append("a", x=1)
        r2 = wal.append("b", y=2)
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert [r.kind for r in wal.records()] == ["a", "b"]

    def test_payloads_roundtrip(self):
        wal = WriteAheadLog()
        wal.append("decision", tid="tx-1", keys=["a", "b"])
        record = wal.records()[0]
        assert record.payload == {"tid": "tx-1", "keys": ["a", "b"]}

    def test_of_kind(self):
        wal = WriteAheadLog()
        wal.append("a")
        wal.append("b")
        wal.append("a")
        assert len(wal.of_kind("a")) == 2

    def test_volatile_records_lost_on_crash(self):
        wal = WriteAheadLog()
        wal.append("durable")
        wal.append_volatile("volatile")
        wal.crash()
        assert [r.kind for r in wal.records()] == ["durable"]

    def test_force_makes_volatile_durable(self):
        wal = WriteAheadLog()
        wal.append_volatile("a")
        wal.append_volatile("b")
        assert len(wal) == 0
        wal.force()
        assert len(wal) == 2

    def test_force_counts_group_commits(self):
        wal = WriteAheadLog()
        wal.append_volatile("a")
        wal.append_volatile("b")
        wal.force()
        assert wal.forces == 1

    def test_reopen_after_crash_preserves_durable(self):
        from repro.persistence import MemoryStore

        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        wal.append("kept", n=1)
        wal.append_volatile("lost")
        wal.crash()
        reopened = wal.reopen()
        assert [r.kind for r in reopened.records()] == ["kept"]
        # LSNs continue without reuse.
        record = reopened.append("after")
        assert record.lsn >= 2

    def test_reopen_with_unforced_rejected(self):
        from repro.exceptions import InvalidStateError

        wal = WriteAheadLog()
        wal.append_volatile("pending")
        with pytest.raises(InvalidStateError):
            wal.reopen()

    def test_truncate(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append("r", i=i)
        dropped = wal.truncate(up_to_lsn=3)
        assert dropped == 3
        assert [r.lsn for r in wal.records()] == [4, 5]

    def test_iteration(self):
        wal = WriteAheadLog()
        wal.append("a")
        assert [r.kind for r in wal] == ["a"]

    def test_two_logs_share_store_independently(self):
        from repro.persistence import MemoryStore

        store = MemoryStore()
        wal1 = WriteAheadLog(store, "one")
        wal2 = WriteAheadLog(store, "two")
        wal1.append("only-in-one")
        assert len(wal2.records()) == 0


class TestSegmentedStoreConcurrency:
    def test_concurrent_batches_across_rollovers(self, tmp_path):
        """Parallel participant phases write through shared stores from
        worker threads; rollover bookkeeping must not corrupt."""
        import threading

        store = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=256)
        errors = []

        def writer(worker):
            try:
                for wave in range(20):
                    store.put_many(
                        {f"w{worker}-k{i}": [worker, wave, i] for i in range(4)}
                    )
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store.keys()) == 16
        # Segment ids must be strictly increasing (no duplicate rollovers).
        ids = store._segment_ids
        assert ids == sorted(set(ids))
        # A reopen replays everything each writer last wrote.
        reopened = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=256)
        for worker in range(4):
            for i in range(4):
                assert reopened.get(f"w{worker}-k{i}") == [worker, 19, i]
        assert reopened.torn_frames_dropped == 0


class TestAutoCompaction:
    """Threshold-triggered compaction, evaluated when a segment rolls over."""

    def make(self, tmp_path, **kwargs):
        kwargs.setdefault("segment_bytes", 256)
        kwargs.setdefault("auto_compact_ratio", 0.5)
        return SegmentedFileStore(str(tmp_path / "seg"), **kwargs)

    def test_overwrites_trigger_compaction(self, tmp_path):
        import os

        store = self.make(tmp_path)
        for wave in range(20):
            store.put_many({f"k{i}": wave for i in range(4)})
        assert store.auto_compactions >= 1
        # Dead weight stays bounded by the threshold after each trigger.
        assert store.dead_record_ratio() < 0.5 + 0.25
        # The live set is intact and a reopen replays the same state.
        assert store.keys() == tuple(sorted(f"k{i}" for i in range(4)))
        reopened = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=256)
        for i in range(4):
            assert reopened.get(f"k{i}") == 19
        # Old segments were actually deleted, not just superseded.
        assert len(os.listdir(str(tmp_path / "seg"))) <= 3

    def test_enabled_by_default(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=256)
        for wave in range(40):
            store.put_many({f"k{i}": wave for i in range(4)})
        assert store.auto_compactions >= 1
        # Dead frames are reclaimed as we go: disk stays bounded instead
        # of accumulating one segment per ~16 records forever.
        assert len(os.listdir(str(tmp_path / "seg"))) < 6

    def test_opt_out(self, tmp_path):
        store = SegmentedFileStore(
            str(tmp_path / "seg"), segment_bytes=256, auto_compact_ratio=None
        )
        for wave in range(20):
            store.put_many({f"k{i}": wave for i in range(4)})
        assert store.auto_compactions == 0
        assert store.dead_record_ratio() > 0.9

    def test_no_rollover_no_compaction(self, tmp_path):
        """However dead the store, an append that does not fill the
        segment never pays for a rewrite."""
        store = self.make(tmp_path, segment_bytes=1 << 20)
        for wave in range(200):
            store.put("k", wave)
        assert store.dead_record_ratio() > 0.99
        assert store.auto_compactions == 0
        assert len(os.listdir(str(tmp_path / "seg"))) == 1

    def test_overwritten_store_compacts_once_per_segment_written(self, tmp_path):
        """4 keys overwritten 10 000 times: O(bytes / segment_bytes)
        compactions, disk never above live + 2 segments, same state
        after reopen."""
        root, segment_bytes = str(tmp_path / "seg"), 4096
        store = SegmentedFileStore(root, segment_bytes=segment_bytes)
        written = peak = 0
        for wave in range(10_000):
            key = f"k{wave % 4}"
            store.put(key, wave)
            written += len(store._frame(key, False, store._index[key]))
            on_disk = sum(
                os.path.getsize(os.path.join(root, name)) for name in os.listdir(root)
            )
            peak = max(peak, on_disk)
        live = sum(len(store._frame(k, False, v)) for k, v in store._index.items())
        # A compaction leaves the live set at the head of the next segment,
        # so a segment takes between (segment_bytes - live) and
        # segment_bytes of fresh writes to fill.
        assert written // segment_bytes > 50
        assert written // segment_bytes - 1 <= store.auto_compactions
        assert store.auto_compactions <= written // (segment_bytes - live) + 1
        assert peak <= live + 2 * segment_bytes
        expected = {f"k{i}": 9996 + i for i in range(4)}
        assert dict(store.items()) == expected
        store.close()
        reopened = SegmentedFileStore(root, segment_bytes=segment_bytes)
        assert dict(reopened.items()) == expected
        assert reopened.torn_frames_dropped == 0

    def test_invalid_ratio_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self.make(tmp_path, auto_compact_ratio=0.0)
        with pytest.raises(ValueError):
            self.make(tmp_path, auto_compact_ratio=1.5)

    def test_fresh_inserts_do_not_compact(self, tmp_path):
        store = self.make(tmp_path)
        store.put_many({f"k{i}": i for i in range(64)})
        assert store.auto_compactions == 0  # nothing is dead

    def test_ratio_survives_reopen(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=4096)
        for wave in range(4):
            store.put_many({f"k{i}": wave for i in range(4)})
        ratio = store.dead_record_ratio()
        assert ratio == pytest.approx(0.75)
        reopened = SegmentedFileStore(str(tmp_path / "seg"), segment_bytes=4096)
        assert reopened.dead_record_ratio() == pytest.approx(ratio)

    def test_delete_heavy_workload_triggers_compaction(self, tmp_path):
        store = self.make(tmp_path)
        store.put_many({f"k{i}": i for i in range(32)})
        for i in range(28):
            store.remove(f"k{i}")
        assert store.auto_compactions >= 1
        assert store.keys() == tuple(sorted(f"k{i}" for i in range(28, 32)))


class TestSegmentedKeysCache:
    """keys() caches its sorted tuple and invalidates on every mutation."""

    def make(self, tmp_path):
        return SegmentedFileStore(str(tmp_path / "seg"))

    def test_repeated_keys_reuse_cached_tuple(self, tmp_path):
        store = self.make(tmp_path)
        store.put_many({"b": 1, "a": 2, "c": 3})
        first = store.keys()
        assert first == ("a", "b", "c")
        assert store.keys() is first, "no re-sort without mutation"

    def test_put_invalidates(self, tmp_path):
        store = self.make(tmp_path)
        store.put("b", 1)
        before = store.keys()
        store.put("a", 2)
        after = store.keys()
        assert after == ("a", "b")
        assert after is not before

    def test_put_many_and_remove_invalidate(self, tmp_path):
        store = self.make(tmp_path)
        store.put_many({"a": 1, "b": 2})
        assert store.keys() == ("a", "b")
        store.put_many({"c": 3})
        assert store.keys() == ("a", "b", "c")
        store.remove("b")
        assert store.keys() == ("a", "c")

    def test_overwrite_keeps_cache_correct(self, tmp_path):
        store = self.make(tmp_path)
        store.put("a", 1)
        keys = store.keys()
        store.put("a", 2)  # same key set; invalidation is still safe
        assert store.keys() == keys == ("a",)
        assert store.get("a") == 2

    def test_compaction_and_reopen_keep_keys_correct(self, tmp_path):
        store = self.make(tmp_path)
        for wave in range(3):
            store.put_many({f"k{i}": wave for i in range(4)})
        store.remove("k0")
        assert store.keys() == ("k1", "k2", "k3")
        store.compact()
        assert store.keys() == ("k1", "k2", "k3")
        reopened = SegmentedFileStore(str(tmp_path / "seg"))
        assert reopened.keys() == ("k1", "k2", "k3")

    def test_auto_compaction_path_invalidates(self, tmp_path):
        store = SegmentedFileStore(
            str(tmp_path / "seg"), segment_bytes=256, auto_compact_ratio=0.5
        )
        store.put_many({f"k{i}": 0 for i in range(8)})
        cached = store.keys()
        for wave in range(4):  # rolls segments over with most frames dead
            store.put_many({f"k{i}": wave for i in range(8)})
        assert store.auto_compactions >= 1
        assert store.keys() == cached == tuple(f"k{i}" for i in range(8))
