"""Intentions in the log: the forced decision is a local commit's only
durable write before phase two.

What the design has to get right once no intention record sits in the
cell store any more:

- a replay of a decided transaction whose completion was lost must never
  overwrite a later install (the per-cell install version);
- a decision whose force failed is still the transaction's fate: it
  stays PREPARED, cannot roll back, and ``redrive_stuck`` forces the
  decision again before installing;
- nothing but ``cell:<key>`` states ever lands in a cell store, and the
  log index holds intention values only for unfinished transactions.
"""

import sys
import threading

import pytest

from repro.ots import (
    Inactive,
    RecoverableRegistry,
    RecoveryManager,
    TransactionalCell,
    TransactionFactory,
    TransactionStatus,
)
from repro.persistence import GroupCommitWAL, MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.persistence.object_store import StoreError

pytestmark = pytest.mark.usefixtures("close_segmented_stores")


def boot(root):
    """One incarnation over the log and cell store under ``root``."""
    wal = WriteAheadLog(SegmentedFileStore(str(root / "wal")), "txlog")
    factory = TransactionFactory(wal=wal)
    registry = RecoverableRegistry()
    cell_store = SegmentedFileStore(str(root / "cells"))
    cells = {
        key: TransactionalCell(key, 0, factory, store=cell_store, registry=registry)
        for key in ("a", "b")
    }
    return wal, factory, registry, cell_store, cells


def close(wal, cell_store):
    wal.store.close()
    cell_store.close()


class TestReplayNeverOverwritesALaterInstall:
    def test_lost_completion_then_one_phase_install(self, tmp_path):
        """tx1 commits a and b, its completion still unforced; a one-phase
        tx2 (which logs nothing) installs a = 7; the process crashes.
        Recovery replays tx1's decision and must leave a = 7."""
        wal, factory, _, cell_store, cells = boot(tmp_path)
        tx1 = factory.create()
        cells["a"].write(tx1, 1)
        cells["b"].write(tx1, 2)
        tx1.commit()
        tx2 = factory.create()
        cells["a"].write(tx2, 7)
        tx2.commit()  # one resource: the one-phase path
        assert [r.kind for r in wal.records()] == ["tx_commit_decision"]
        wal.crash()  # tx1's completion never reached the disk
        close(wal, cell_store)

        wal, _, registry, cell_store, cells = boot(tmp_path)
        assert cells["a"].list_in_doubt() == []  # its logged version is not newer
        report = RecoveryManager(wal, registry).recover()
        assert report.recommitted == {tx1.tid: []}
        assert (cells["a"].committed_value, cells["b"].committed_value) == (7, 2)
        assert dict(cell_store.items()) == {"cell:a": [2, 7], "cell:b": [1, 2]}
        close(wal, cell_store)

        wal, _, registry, cell_store, cells = boot(tmp_path)
        assert RecoveryManager(wal, registry).recover().clean
        assert (cells["a"].committed_value, cells["b"].committed_value) == (7, 2)
        close(wal, cell_store)


class FailingPutStore(MemoryStore):
    """A log medium whose next ``put`` raises (the force fails)."""

    fail_next = False

    def put(self, uid, state):
        if self.fail_next:
            self.fail_next = False
            raise StoreError("log device error")
        super().put(uid, state)


LOGS = {
    "wal": lambda store: WriteAheadLog(store, "txlog"),
    "group": lambda store: GroupCommitWAL(
        store, "txlog", window=0.0, sleep=lambda _seconds: None
    ),
}


@pytest.mark.parametrize("log", sorted(LOGS))
class TestFailedDecisionForce:
    def build(self, log):
        log_store, cell_store = FailingPutStore(), MemoryStore()
        factory = TransactionFactory(wal=LOGS[log](log_store))
        cells = [TransactionalCell(key, 0, factory, store=cell_store) for key in "abc"]
        return log_store, cell_store, factory, cells

    def test_stays_prepared_then_redrive_forces_and_installs(self, log):
        log_store, cell_store, factory, (a, b, _) = self.build(log)
        tx = factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        log_store.fail_next = True
        with pytest.raises(StoreError):
            tx.commit()
        # Not aborted, not committed: the decision may still reach the
        # disk, so the transaction keeps its locks and cannot roll back.
        assert tx.status is TransactionStatus.PREPARED
        assert tx.decided and a.is_locked() and b.is_locked()
        assert cell_store.keys() == ()
        with pytest.raises(Inactive):
            tx.rollback()

        assert factory.redrive_stuck() == [tx.tid]
        assert tx.status is TransactionStatus.COMMITTED
        assert (a.committed_value, b.committed_value) == (1, 2)
        assert not a.is_locked() and not b.is_locked()
        decisions = [r for r in factory.wal.records() if r.kind == "tx_commit_decision"]
        assert decisions and all(r.payload["tid"] == tx.tid for r in decisions)
        assert decisions[-1].payload["intentions"] == {"a": [1, 1], "b": [1, 2]}

    def test_a_later_force_lands_it_and_recovery_agrees(self, log):
        """The failed record stays in the volatile tail, so the next
        transaction's force makes it durable.  A crash before the redrive
        then recovers to commit — which the live process never denied."""
        log_store, cell_store, factory, (a, b, c) = self.build(log)
        tx = factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        log_store.fail_next = True
        with pytest.raises(StoreError):
            tx.commit()
        later = factory.create()
        c.write(later, 5)
        d = TransactionalCell("d", 0, factory, store=cell_store)
        d.write(later, 6)
        later.commit()
        assert tx.tid in factory.log_index().decided

        factory.wal.crash()
        wal = LOGS[log](log_store)
        rebooted = TransactionFactory(wal=wal)
        registry = RecoverableRegistry()
        cells = [
            TransactionalCell(key, 0, rebooted, store=cell_store, registry=registry)
            for key in "abcd"
        ]
        report = RecoveryManager(wal, registry).recover()
        assert sorted(report.recommitted[tx.tid]) == ["a", "b"]
        assert [cell.committed_value for cell in cells] == [1, 2, 5, 6]

    def test_redrive_keeps_holding_while_the_log_still_fails(self, log):
        log_store, _, factory, (a, b, _) = self.build(log)
        tx = factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        log_store.fail_next = True
        with pytest.raises(StoreError):
            tx.commit()
        log_store.fail_next = True
        assert factory.redrive_stuck() == []  # retried by the next round
        assert tx.status is TransactionStatus.PREPARED and a.committed_value == 0
        assert factory.redrive_stuck() == [tx.tid]
        assert (a.committed_value, b.committed_value) == (1, 2)


class TestOnlyStatesInTheStore:
    def test_commit_abort_and_one_phase_write_only_states(self, tmp_path):
        wal, factory, _, cell_store, cells = boot(tmp_path)
        for value in (1, 2):
            tx = factory.create()
            cells["a"].write(tx, value)
            cells["b"].write(tx, value)
            tx.commit()
        aborted = factory.create()
        cells["a"].write(aborted, 99)
        cells["b"].write(aborted, 99)
        aborted.rollback()
        one_phase = factory.create()
        cells["b"].write(one_phase, 3)
        one_phase.commit()
        assert cell_store.keys() == ("cell:a", "cell:b")
        assert dict(cell_store.items()) == {"cell:a": [2, 2], "cell:b": [3, 3]}
        close(wal, cell_store)

    def test_index_drops_intentions_once_completed(self, tmp_path):
        wal, factory, _, cell_store, cells = boot(tmp_path)
        tids = []
        for value in range(1, 6):
            tx = factory.create()
            cells["a"].write(tx, value)
            cells["b"].write(tx, value)
            tx.commit()
            tids.append(tx.tid)
        # Each install was buffered: every completion waits for the
        # checkpoint, so the index keeps all five intentions.
        wal.force()
        index = factory.log_index()
        assert list(index.intentions) == tids
        assert factory.checkpoint() == 5
        assert list(factory.log_index().intentions) == tids  # appended, not yet forced
        wal.force()
        index = factory.log_index()
        assert index.intentions == {}
        assert sorted(index.decided) == sorted(tids)  # the status answers stay
        close(wal, cell_store)


class TestParkedCompletionsUnderConcurrentCommits:
    def test_every_completion_lands_once(self, tmp_path):
        """Committers on eight threads park completions while another
        thread checkpoints in a loop: once the last checkpoint is forced,
        each commit has exactly one ``tx_completed`` and the index holds
        no intention."""
        # An in-memory log: no fsync releases the interpreter lock, so the
        # threads contend for it on every step.
        wal = WriteAheadLog(MemoryStore(), "txlog")
        factory = TransactionFactory(wal=wal)
        cell_store = SegmentedFileStore(str(tmp_path / "cells"))
        committed, done = [], threading.Event()

        def commit_loop(worker):
            a, b = (
                TransactionalCell(f"{worker}-{key}", 0, factory, store=cell_store)
                for key in "ab"
            )
            for value in range(1, 201):
                tx = factory.create()
                a.write(tx, value)
                b.write(tx, value)
                tx.commit()
                committed.append(tx.tid)

        def checkpoint_loop():
            while not done.is_set():
                factory.checkpoint()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            checkpointer = threading.Thread(target=checkpoint_loop)
            checkpointer.start()
            workers = [threading.Thread(target=commit_loop, args=(w,)) for w in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            done.set()
            checkpointer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not checkpointer.is_alive() and not any(w.is_alive() for w in workers)
        factory.checkpoint()
        wal.force()
        completed = [r.payload["tid"] for r in wal.of_kind("tx_completed")]
        assert len(committed) == 8 * 200
        assert sorted(completed) == sorted(committed)
        assert factory.log_index().intentions == {}
        cell_store.close()
