"""Integration: end-to-end crash/recovery across OTS + Activity Service.

Reproduces the §3.4 story: a node crash mid-protocol loses volatile
state; the write-ahead log, object stores and checkpointed activity
structure drive everything back to consistency, with application logic
re-driving in-flight activities.
"""

import pytest

from repro.core import (
    ActivityManager,
    CompletionSignalSet,
    CompletionStatus,
    RecordingAction,
)
from repro.core.predefined import COMPLETION_SET_NAME
from repro.models import TwoPhaseCommitSignalSet
from repro.models.twopc import SET_NAME as TWOPC_SET, TransactionalResourceAction
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    SimulatedCrash,
    TransactionFactory,
    TransactionalCell,
)
from repro.persistence import (
    MemoryStore,
    SegmentedFileStore,
    SqliteStore,
    WriteAheadLog,
)


class TestOtsThroughActivityService:
    """2PC driven by the *activity service* over real recoverable cells.

    Parametrised over the stable-storage backend: the in-memory model,
    the log-structured :class:`SegmentedFileStore` (real files, one
    append+fsync per batch) and the SQL-transactional
    :class:`SqliteStore` must recover identically.
    """

    @pytest.fixture(params=["memory", "segmented", "sqlite"])
    def env(self, request, tmp_path):
        class Env:
            def __init__(self, stable, cell_store, reopen):
                self.stable = stable
                self.wal = WriteAheadLog(self.stable, "txlog")
                self.factory = TransactionFactory(wal=self.wal)
                self.registry = RecoverableRegistry()
                self.cell_store = cell_store
                self.manager = ActivityManager()
                self._reopen = reopen

            def cell(self, key, initial=0):
                return TransactionalCell(
                    key, initial, self.factory,
                    store=self.cell_store, registry=self.registry,
                )

            def restart_cell_store(self):
                """Node restart: rebuild stable storage from the medium.

                For the file-backed store this replays the segment files
                from disk; the in-memory model just keeps its instance
                (it *is* the simulated stable medium).
                """
                self.cell_store = self._reopen(self.cell_store)
                return self.cell_store

        if request.param == "memory":
            return Env(MemoryStore(), MemoryStore(), lambda store: store)
        if request.param == "sqlite":

            def reopen_sqlite(store):
                store.close()
                return SqliteStore(str(tmp_path / "cells.db"))

            return Env(
                SqliteStore(str(tmp_path / "stable.db")),
                SqliteStore(str(tmp_path / "cells.db")),
                reopen_sqlite,
            )
        return Env(
            SegmentedFileStore(str(tmp_path / "stable")),
            SegmentedFileStore(str(tmp_path / "cells")),
            lambda store: SegmentedFileStore(str(tmp_path / "cells")),
        )

    def test_activity_driven_commit_of_recoverable_cells(self, env):
        a, b = env.cell("a"), env.cell("b")
        tx = env.factory.create()
        a.write(tx, 10)
        b.write(tx, 20)
        activity = env.manager.begin("commit-via-signals")
        for record in tx.resources:
            activity.add_action(
                TWOPC_SET,
                TransactionalResourceAction(record.participant, record.recovery_key),
            )
        activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        outcome = activity.complete(CompletionStatus.SUCCESS)
        assert outcome.name == "committed"
        assert a.read() == 10 and b.read() == 20

    def test_coordinator_crash_then_recovery_completes_commit(self, env):
        a, b = env.cell("a"), env.cell("b")
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # "Restart": fresh cells over the reopened stores, fresh registry.
        store = env.restart_cell_store()
        registry = RecoverableRegistry()
        TransactionalCell("a", 0, env.factory, store=store, registry=registry)
        TransactionalCell("b", 0, env.factory, store=store, registry=registry)
        report = RecoveryManager(env.wal.reopen(), registry).recover()
        assert report.recommitted
        assert registry.resolve("a").committed_value == 1
        assert registry.resolve("b").committed_value == 2

    def test_crash_before_decision_presumes_abort(self, env):
        a, b = env.cell("a"), env.cell("b")
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("before_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        store = env.restart_cell_store()
        registry = RecoverableRegistry()
        cell_a = TransactionalCell(
            "a", 0, env.factory, store=store, registry=registry
        )
        cell_b = TransactionalCell(
            "b", 0, env.factory, store=store, registry=registry
        )
        RecoveryManager(env.wal.reopen(), registry).recover()
        assert cell_a.read() == 0 and cell_b.read() == 0
        assert cell_a.list_in_doubt() == []


class TestActivityStructureRecovery:
    def test_full_stack_restart(self):
        """Checkpoint activities + WAL + cells; crash everything volatile;
        rebuild; re-drive the in-flight activity to completion."""
        stable = MemoryStore()
        activity_store = MemoryStore()

        def build_manager():
            manager = ActivityManager(store=activity_store)
            manager.register_signal_set_factory("completion", CompletionSignalSet)
            manager.register_action_factory(
                "recorder", lambda config: RecordingAction(config.get("name", "r"))
            )
            return manager

        manager = build_manager()
        parent = manager.begin("booking")
        child = manager.begin("payment", parent=parent)
        for activity in (parent, child):
            activity.register_signal_set(
                CompletionSignalSet(), completion=True, factory_name="completion"
            )
            activity.add_action(
                COMPLETION_SET_NAME,
                RecordingAction(),
                factory_name="recorder",
                factory_config={"name": activity.name},
            )
        from repro.core.recovery import ActivityRecoveryService

        ActivityRecoveryService(manager, activity_store).checkpoint_tree(parent)

        # Crash: all in-memory state gone; rebuild from the store.
        manager2 = build_manager()
        in_flight = manager2.recover()
        assert len(in_flight) == 2
        recovered_child = manager2.get(child.activity_id)
        recovered_parent = manager2.get(parent.activity_id)
        assert recovered_child.parent is recovered_parent
        # Application re-drives to completion, children first.
        assert recovered_child.complete(CompletionStatus.SUCCESS).is_done
        assert recovered_parent.complete(CompletionStatus.SUCCESS).is_done

    def test_node_crash_with_durable_activity_servants(self):
        """Exported activities survive node crashes as durable servants;
        remote enlistments made before the crash still work after restart."""
        from repro.core import BroadcastSignalSet
        from repro.orb import Orb

        orb = Orb()
        node = orb.create_node("host")
        manager = ActivityManager(clock=orb.clock)
        manager.install(orb)
        activity = manager.begin("durable")
        ref = manager.export(activity, node)
        recorder = RecordingAction("r")
        remote_node = orb.create_node("remote")
        action_ref = remote_node.activate(
            recorder, interface="Action", durable=True
        )
        ref.invoke("enlist", "events", action_ref)
        node.crash()
        node.restart()
        activity.register_signal_set(
            BroadcastSignalSet("after-restart", signal_set_name="events")
        )
        ref.invoke("signal", "events")
        assert recorder.signal_names == ["after-restart"]


class TestSegmentedStoreCompactionUnderLoad:
    """Compaction as a background maintenance step between commit waves.

    The store must stay correct while transactions keep writing across
    segment rollovers and repeated compactions, and a reopen from disk
    (crash) at any point must replay to the same committed state.
    """

    def test_compaction_between_commit_waves_preserves_state(self, tmp_path):
        root = str(tmp_path / "cells")
        # Tiny segments so the workload rolls over constantly.
        store = SegmentedFileStore(root, segment_bytes=256)
        stable = SegmentedFileStore(str(tmp_path / "stable"), segment_bytes=256)
        factory = TransactionFactory(wal=WriteAheadLog(stable, "txlog"))
        registry = RecoverableRegistry()
        cells = [
            TransactionalCell(f"c{i}", 0, factory, store=store, registry=registry)
            for i in range(4)
        ]
        compactions = 0
        for wave in range(12):
            tx = factory.create()
            for index, cell in enumerate(cells):
                cell.write(tx, wave * 10 + index)
            tx.commit()
            if wave % 3 == 2:
                store.compact()
                compactions += 1
        assert compactions == 4
        expected = {f"c{i}": 110 + i for i in range(4)}
        for cell in cells:
            assert cell.committed_value == expected[cell.key]
        # Crash + reopen: the compacted log replays to the same state.
        reopened = SegmentedFileStore(root, segment_bytes=256)
        registry2 = RecoverableRegistry()
        for key, value in expected.items():
            recovered = TransactionalCell(
                key, 0, factory, store=reopened, registry=registry2
            )
            assert recovered.committed_value == value
        assert reopened.torn_frames_dropped == 0

    def test_compaction_bounds_segment_files(self, tmp_path):
        import os

        root = str(tmp_path / "cells")
        # Explicit compaction only: the store's own would already have
        # run at the segment rollovers.
        store = SegmentedFileStore(root, segment_bytes=256, auto_compact_ratio=None)
        for wave in range(20):
            store.put_many({f"k{i}": wave for i in range(8)})
        files_before = len(os.listdir(root))
        store.compact()
        files_after = len(os.listdir(root))
        assert files_after < files_before
        assert store.keys() == tuple(sorted(f"k{i}" for i in range(8)))
