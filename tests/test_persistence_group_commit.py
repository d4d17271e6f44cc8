"""Edge cases for the write-ahead log, group commit, and SegmentedFileStore.

These pin down the behaviours the group-commit refactor must preserve:
truncation surviving a reopen, batch atomicity across crashes (no torn
batches), concurrent appenders observing their own records as durable
after a shared force.
"""

import threading

import pytest

from repro.config import FactoryConfig
from repro.persistence import (
    GroupCommitWAL,
    MemoryStore,
    SegmentedFileStore,
    WriteAheadLog,
)
from repro.persistence.object_store import ObjectStore, StoreError

pytestmark = pytest.mark.usefixtures("close_segmented_stores")


class CrashError(RuntimeError):
    """Simulated media crash raised mid-batch."""


class CrashingStore(ObjectStore):
    """Proxy store that dies after a set number of writes."""

    def __init__(self, inner, writes_before_crash):
        self._inner = inner
        self._remaining = writes_before_crash

    def _spend(self):
        if self._remaining <= 0:
            raise CrashError("store crashed")
        self._remaining -= 1

    def put(self, uid, state):
        self._spend()
        self._inner.put(uid, state)

    def put_many(self, items):
        self._spend()
        self._inner.put_many(items)

    def get(self, uid):
        return self._inner.get(uid)

    def remove(self, uid):
        self._inner.remove(uid)

    def contains(self, uid):
        return self._inner.contains(uid)

    def keys(self):
        return self._inner.keys()


class TestTruncateReopen:
    def test_truncate_then_reopen_keeps_tail(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        for i in range(7):
            wal.append("r", i=i)
        assert wal.truncate(up_to_lsn=5) == 5
        reopened = wal.reopen()
        assert [r.lsn for r in reopened.records()] == [6, 7]
        assert [r.payload["i"] for r in reopened.records()] == [5, 6]

    def test_truncate_all_then_reopen_does_not_reuse_lsns(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        for i in range(5):
            wal.append("r", i=i)
        wal.truncate(up_to_lsn=5)
        reopened = wal.reopen()
        assert len(reopened) == 0
        record = reopened.append("after")
        assert record.lsn == 6

    def test_truncate_inside_a_batch_drops_only_its_head(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        for i in range(8):
            wal.append_volatile("r", i=i)
            if i % 4 == 3:
                wal.force()  # two batches: lsns 1-4 and 5-8
        assert wal.truncate(up_to_lsn=6) == 6
        assert len(wal) == 2
        assert [r.lsn for r in wal.records()] == [7, 8]
        reopened = wal.reopen()
        assert [r.lsn for r in reopened.records()] == [7, 8]
        assert len(reopened) == 2
        assert reopened.truncate(up_to_lsn=7) == 1

    def test_truncate_never_reaches_the_volatile_tail(self):
        wal = WriteAheadLog(MemoryStore(), "log")
        wal.append("durable")
        wal.append_volatile("pending")
        assert wal.truncate(up_to_lsn=10) == 1
        wal.force()
        assert [r.kind for r in wal.reopen().records()] == ["pending"]

    def test_crash_between_watermark_and_key_removal_finishes_on_open(self):
        """truncate writes its watermark, then removes the covered batch
        keys; dying in between must read back as the finished cut."""
        inner = MemoryStore()
        WriteAheadLog(inner, "log").append("a")
        WriteAheadLog(inner, "log").append("b")

        class RemoveDies(CrashingStore):
            def remove(self, uid):
                raise CrashError("store crashed")

        with pytest.raises(CrashError):
            WriteAheadLog(RemoveDies(inner, 99), "log").truncate(up_to_lsn=1)
        reopened = WriteAheadLog(inner, "log")
        assert [r.kind for r in reopened.records()] == ["b"]
        assert [key for key in inner.keys() if ":b:" in key] == [
            "log:b:000000000002:000000000002"
        ]


class TestBatchAtomicity:
    def test_unforced_batch_lost_whole_on_crash(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        wal.append("durable")
        wal.append_volatile("v1")
        wal.append_volatile("v2")
        wal.crash()
        reopened = wal.reopen()
        assert [r.kind for r in reopened.records()] == ["durable"]

    @pytest.mark.parametrize("writes_allowed, visible", [(0, 0), (1, 3)])
    def test_store_crash_around_the_single_batch_write(self, writes_allowed, visible):
        """A force is one store write: a store that dies before it leaves
        none of the batch after reopen, one that dies right after it
        leaves all of it — never a prefix."""
        inner = MemoryStore()
        setup = WriteAheadLog(inner, "log")
        setup.append("pre", n=0)
        setup.append("pre", n=1)
        wal = WriteAheadLog(CrashingStore(inner, writes_allowed), "log")
        wal.append_volatile("batch", n=1)
        wal.append_volatile("batch", n=2)
        wal.append_volatile("batch", n=3)
        try:
            wal.force()
            wal.append("later")  # the write budget is spent: this one dies
        except CrashError:
            pass
        kinds = [r.kind for r in WriteAheadLog(inner, "log").records()]
        assert kinds == ["pre", "pre"] + ["batch"] * visible

    def test_force_never_overwrites_a_key(self):
        """Each force lands under a key of its own; earlier batches are
        not rewritten, so the store accumulates no dead versions."""
        store = MemoryStore()
        wal = WriteAheadLog(store, "log")
        seen = []
        for i in range(5):
            wal.append("r", i=i)
            keys = set(store.keys())
            assert keys.issuperset(seen)
            seen = keys
        assert len(seen) == 5
        assert store.writes == 5


class TestConcurrentGroupCommit:
    def test_each_appender_observes_its_record_durable(self):
        store = MemoryStore()
        wal = GroupCommitWAL(store, "log", window=0.001)
        observed = []
        errors = []

        def appender(worker_id):
            try:
                for i in range(10):
                    record = wal.append("rec", worker=worker_id, i=i)
                    # append returning means the record must be durable now.
                    observed.append((record.lsn, wal.durable_upto >= record.lsn))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=appender, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(durable for _, durable in observed)
        lsns = sorted(lsn for lsn, _ in observed)
        assert lsns == list(range(1, 81))  # every record assigned a unique LSN
        assert len(wal.records()) == 80
        assert wal.forces < 80  # batching actually shared forces

    def test_crash_during_window_raises_for_inflight_append(self):
        """A crash() while the leader waits must not livelock the appender
        or let append return a record that was never durable."""
        from repro.exceptions import InvalidStateError

        entered = threading.Event()
        release = threading.Event()

        def sleeper(_seconds):
            entered.set()
            release.wait(2)

        wal = GroupCommitWAL(MemoryStore(), "log", window=0.05, sleep=sleeper)
        result = {}

        def appender():
            try:
                wal.append("doomed")
                result["outcome"] = "returned"
            except InvalidStateError:
                result["outcome"] = "raised"

        thread = threading.Thread(target=appender)
        thread.start()
        assert entered.wait(2)  # leader is parked in the batching window
        wal.crash()
        release.set()
        thread.join(2)
        assert not thread.is_alive()
        assert result["outcome"] == "raised"
        assert wal.records() == []

    def test_window_knob_rejects_non_group_wal(self):
        """Passing the knob with an immediate-force log is a config error,
        not a silent no-op that reports batching as active."""
        from repro.ots import RecoverableRegistry, RecoveryManager, TransactionFactory

        with pytest.raises(ValueError):
            TransactionFactory(
                wal=WriteAheadLog(),
                config=FactoryConfig(group_commit_window=0.01),
            )
        with pytest.raises(ValueError):
            RecoveryManager(
                WriteAheadLog(), RecoverableRegistry(), group_commit_window=0.01
            )
        factory = TransactionFactory(config=FactoryConfig(group_commit_window=0.01))
        assert isinstance(factory.wal, GroupCommitWAL)
        assert factory.group_commit_window == 0.01
        retuned = TransactionFactory(
            wal=GroupCommitWAL(window=0.5),
            config=FactoryConfig(group_commit_window=0.01),
        )
        assert retuned.wal.window == 0.01
        assert TransactionFactory().group_commit_window is None

    def test_group_commit_reopen_preserves_window(self):
        wal = GroupCommitWAL(MemoryStore(), "log", window=0.123)
        wal.append("a")
        reopened = wal.reopen()
        assert isinstance(reopened, GroupCommitWAL)
        assert reopened.window == 0.123
        assert [r.kind for r in reopened.records()] == ["a"]


class TestSegmentedFileStore:
    def test_roundtrip_and_reopen(self, tmp_path):
        root = str(tmp_path / "seg")
        store = SegmentedFileStore(root)
        store.put("a", {"x": 1})
        store.put("b", [1, 2])
        assert SegmentedFileStore(root).get("a") == {"x": 1}
        assert SegmentedFileStore(root).keys() == ("a", "b")

    def test_put_many_is_one_flush(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"))
        store.put_many({f"k{i}": i for i in range(20)})
        assert store.flushes == 1
        assert len(store) == 20

    def test_remove_tombstone_survives_reopen(self, tmp_path):
        root = str(tmp_path / "seg")
        store = SegmentedFileStore(root)
        store.put("a", 1)
        store.put("b", 2)
        store.remove("a")
        with pytest.raises(StoreError):
            store.get("a")
        reopened = SegmentedFileStore(root)
        assert reopened.keys() == ("b",)
        with pytest.raises(StoreError):
            reopened.remove("a")

    def test_values_are_isolated_copies(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"))
        value = {"list": [1]}
        store.put("k", value)
        value["list"].append(2)
        fetched = store.get("k")
        fetched["list"].append(3)
        assert store.get("k") == {"list": [1]}

    def test_segment_rotation_and_compaction(self, tmp_path):
        root = str(tmp_path / "seg")
        store = SegmentedFileStore(root, segment_bytes=256, auto_compact_ratio=None)
        for i in range(50):
            store.put("hot", {"rev": i})  # 49 superseded frames accumulate
        assert len(store._segment_ids) > 1
        removed = store.compact()
        assert removed >= 1
        assert store.get("hot") == {"rev": 49}
        reopened = SegmentedFileStore(root)
        assert reopened.get("hot") == {"rev": 49}
        assert reopened.keys() == ("hot",)

    def test_torn_tail_frame_ignored_on_reopen(self, tmp_path):
        root = str(tmp_path / "seg")
        store = SegmentedFileStore(root)
        store.put("good", 1)
        store.put("victim", 2)
        path = store._segment_path(store._active_id)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-3])  # crash sheared the last frame
        reopened = SegmentedFileStore(root)
        assert reopened.torn_frames_dropped == 1
        assert reopened.keys() == ("good",)

    def test_wal_group_commit_over_segmented_store(self, tmp_path):
        """End to end: a WAL batch lands as one store flush on disk."""
        root = str(tmp_path / "seg")
        store = SegmentedFileStore(root)
        wal = WriteAheadLog(store, "txlog")
        flushes_before = store.flushes
        wal.append_volatile("a")
        wal.append_volatile("b")
        wal.append_volatile("c")
        wal.force()
        assert store.flushes - flushes_before == 1
        reopened = WriteAheadLog(SegmentedFileStore(root), "txlog")
        assert [r.kind for r in reopened.records()] == ["a", "b", "c"]
