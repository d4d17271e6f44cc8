"""Integration: crash recovery with *file-backed* stable storage.

The in-memory store stands in for stable storage in most tests; here the
same recovery paths run against real files on disk
(:class:`SegmentedFileStore`), proving the WAL and the cell install
survive a full process-style teardown (fresh objects, same directory).
"""

import pytest

from repro.core import ActivityManager, CompletionSignalSet, CompletionStatus, RecordingAction
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    SimulatedCrash,
    TransactionFactory,
    TransactionalCell,
)
from repro.persistence import SegmentedFileStore, WriteAheadLog

pytestmark = pytest.mark.usefixtures("close_segmented_stores")


class TestFileBackedOts:
    def test_commit_survives_reopen(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "cells"))
        factory = TransactionFactory(
            wal=WriteAheadLog(SegmentedFileStore(str(tmp_path / "wal")), "txlog")
        )
        cell = TransactionalCell("balance", 100, factory, store=store)
        tx = factory.create()
        cell.write(tx, 250)
        other = TransactionalCell("other", 0, factory, store=store)
        other.write(tx, 1)
        tx.commit()
        # Fresh objects over the same directory.
        reopened = TransactionalCell(
            "balance", 0, TransactionFactory(), store=SegmentedFileStore(str(tmp_path / "cells"))
        )
        assert reopened.read() == 250

    def test_crash_recovery_from_disk(self, tmp_path):
        wal_store = SegmentedFileStore(str(tmp_path / "wal"))
        cell_store = SegmentedFileStore(str(tmp_path / "cells"))
        factory = TransactionFactory(wal=WriteAheadLog(wal_store, "txlog"))
        registry = RecoverableRegistry()
        a = TransactionalCell("a", 0, factory, store=cell_store, registry=registry)
        b = TransactionalCell("b", 0, factory, store=cell_store, registry=registry)
        tx = factory.create()
        a.write(tx, 7)
        b.write(tx, 8)
        factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()

        # Full restart: everything rebuilt from the directories.
        fresh_factory = TransactionFactory(
            wal=WriteAheadLog(SegmentedFileStore(str(tmp_path / "wal")), "txlog")
        )
        fresh_registry = RecoverableRegistry()
        fresh_cells = SegmentedFileStore(str(tmp_path / "cells"))
        fresh_a = TransactionalCell(
            "a", 0, fresh_factory, store=fresh_cells, registry=fresh_registry
        )
        fresh_b = TransactionalCell(
            "b", 0, fresh_factory, store=fresh_cells, registry=fresh_registry
        )
        report = RecoveryManager(fresh_factory.wal, fresh_registry).recover()
        assert report.recommitted
        assert fresh_a.read() == 7
        assert fresh_b.read() == 8

    def test_presumed_abort_from_disk(self, tmp_path):
        wal_store = SegmentedFileStore(str(tmp_path / "wal"))
        cell_store = SegmentedFileStore(str(tmp_path / "cells"))
        factory = TransactionFactory(wal=WriteAheadLog(wal_store, "txlog"))
        registry = RecoverableRegistry()
        cell = TransactionalCell("c", 5, factory, store=cell_store, registry=registry)
        tx = factory.create()
        cell.write(tx, 99)
        other = TransactionalCell("d", 0, factory, store=cell_store, registry=registry)
        other.write(tx, 1)
        factory.failpoints.arm("before_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()

        fresh_registry = RecoverableRegistry()
        fresh_cell = TransactionalCell(
            "c", 5, TransactionFactory(), store=SegmentedFileStore(str(tmp_path / "cells")),
            registry=fresh_registry,
        )
        RecoveryManager(
            WriteAheadLog(SegmentedFileStore(str(tmp_path / "wal")), "txlog"), fresh_registry
        ).recover()
        assert fresh_cell.read() == 5
        assert fresh_cell.list_in_doubt() == []


class TestFileBackedActivityRecovery:
    def test_activity_structure_from_disk(self, tmp_path):
        store_dir = str(tmp_path / "activities")

        def build_manager():
            manager = ActivityManager(store=SegmentedFileStore(store_dir))
            manager.register_signal_set_factory("completion", CompletionSignalSet)
            manager.register_action_factory(
                "recorder", lambda config: RecordingAction(config.get("name", "r"))
            )
            return manager

        manager = build_manager()
        activity = manager.begin("durable-job")
        activity.register_signal_set(
            CompletionSignalSet(), completion=True, factory_name="completion"
        )
        activity.add_action(
            "repro.predefined.completion",
            RecordingAction(),
            factory_name="recorder",
            factory_config={"name": "r"},
        )
        manager.checkpoint(activity)

        fresh = build_manager()
        in_flight = fresh.recover()
        assert in_flight == [activity.activity_id]
        outcome = fresh.get(activity.activity_id).complete(CompletionStatus.SUCCESS)
        assert outcome.is_done
