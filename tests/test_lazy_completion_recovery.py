"""Completion records are unforced: what a crash that loses them costs.

``tx_completed`` rides the next force of the log, so a crash right after
the last acknowledged commit finds a decision without a completion.  The
acknowledged state must be there anyway, recovery must replay that tail
as a no-op and complete it, and a second recovery must find nothing to
do — also when the replay has to be redelivered to a subordinate domain
that finished the transaction long ago and no longer has a servant for
it.
"""

from repro.chaos import ChaosWorld
from repro.exceptions import ReproError
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    TransactionalCell,
    TransactionFactory,
)
from repro.persistence import MemoryStore, WriteAheadLog


class RecordingStore(MemoryStore):
    """Appends ``(label, {uid: state})`` to a shared journal per write."""

    def __init__(self, label, journal):
        super().__init__()
        self._label, self._journal = label, journal

    def put(self, uid, state):
        self.put_many({uid: state})

    def put_many(self, items):
        items = dict(items)
        self._journal.append((self._label, items))
        super().put_many(items)


def boot(log_store, cell_store):
    wal = WriteAheadLog(log_store, "txlog")
    factory = TransactionFactory(wal=wal)
    registry = RecoverableRegistry()
    cells = [
        TransactionalCell(key, 0, factory, store=cell_store, registry=registry)
        for key in ("a", "b")
    ]
    return wal, factory, registry, cells


def commit_pair(factory, cells, value):
    tx = factory.create()
    for cell in cells:
        cell.write(tx, value)
    tx.commit()
    return tx.tid


class TestCrashAfterTheLastAck:
    def test_only_the_tail_is_replayed_and_it_applies_nothing(self):
        log_store, cell_store = MemoryStore(), MemoryStore()
        wal, factory, _, cells = boot(log_store, cell_store)
        tids = [commit_pair(factory, cells, value) for value in range(1, 6)]
        wal.crash()  # the fifth completion was never forced

        wal, _, registry, cells = boot(log_store, cell_store)
        assert [cell.committed_value for cell in cells] == [5, 5]  # as acknowledged
        completed = [r.payload["tid"] for r in wal.of_kind("tx_completed")]
        assert completed == tids[:4]  # each rode the next decision's force
        report = RecoveryManager(wal, registry).recover()
        assert report.recommitted == {tids[4]: []}  # replayed, nothing to apply
        assert report.presumed_aborted == {} and report.unresolved_keys == []
        assert [cell.committed_value for cell in cells] == [5, 5]
        assert wal.records()[-1].payload == {"tid": tids[4], "recovered": True}

        wal, _, registry, cells = boot(log_store, cell_store)
        assert RecoveryManager(wal, registry).recover().clean
        assert [cell.committed_value for cell in cells] == [5, 5]

    def test_completion_is_never_durable_before_its_installs(self):
        journal = []
        log_store = RecordingStore("log", journal)
        cell_store = RecordingStore("cells", journal)
        wal, factory, _, cells = boot(log_store, cell_store)
        tids = [commit_pair(factory, cells, value) for value in (1, 2)]
        wal.force()
        installs = [
            index for index, (label, written) in enumerate(journal)
            if label == "cells" and "cell:a" in written
        ]
        completions = {
            payload["tid"]: index
            for index, (label, written) in enumerate(journal)
            if label == "log"
            for batch in written.values()
            for kind, payload in batch
            if kind == "tx_completed"
        }
        assert len(installs) == 2 and list(completions) == tids
        for tid, install in zip(tids, installs):
            assert install < completions[tid]


def federated_transfer(world, op_id, amount=1.0):
    """One A->B+C transfer coordinated by A (the superior); two remote
    subordinates keep it two-phase (one would be a last agent)."""
    domain = world.domain("A")
    domain.current.begin()
    try:
        domain.accounts["a0"].withdraw(op_id, 2 * amount)
        world.account_ref("A", "B", "b0").invoke("deposit", op_id, amount)
        world.account_ref("A", "C", "c0").invoke("deposit", op_id, amount)
    except ReproError:
        domain.current.rollback()
        raise
    domain.current.commit()


class TestRedeliveryToARetiredSubordinate:
    def test_superior_restart_after_subordinate_forgot_the_transaction(self):
        """A commits across B, then crashes with its completion record
        unforced.  Meanwhile B made its own completion durable, crashed
        and came back: its recovery found the subordinate finished and
        re-exported nothing.  A's replay is answered ``ObjectNotExist``
        by a live B — the acknowledgement, not a failure."""
        world = ChaosWorld(seed=7, domain_names=("A", "B", "C"))
        federated_transfer(world, "op1", 5.0)
        balances = world.committed_balances()

        b = world.domain("B")
        b.service.retire_completed()  # housekeeping forces B's tail
        assert b.wal.of_kind("tx_completed")
        world.crash("B")
        assert world.restart("B") is None
        node = world.bridge.coordination_node("B")
        assert not [oid for oid in node.object_ids() if oid.startswith("fedres:")]

        world.crash("A")  # loses A's unforced tx_completed
        assert world.domain("A").wal.of_kind("tx_commit_decision")
        assert world.restart("A") is None  # recovery succeeded
        a = world.domain("A")
        (completion,) = a.wal.of_kind("tx_completed")
        assert completion.payload["recovered"] is True
        assert world.committed_balances() == balances

        world.crash("A")
        assert world.restart("A") is None
        assert world.domain("A").service.recover().clean
        assert world.quiesce()
        assert world.total_committed() == world.expected_total()

    def test_dead_subordinate_is_not_an_acknowledgement(self):
        """The same replay against a *crashed* B must fail (and be
        retried), not be mistaken for B having finished."""
        world = ChaosWorld(seed=7, domain_names=("A", "B", "C"))
        federated_transfer(world, "op1", 5.0)
        world.crash("B")
        world.crash("A")
        error = world.restart("A")
        assert error is not None and error.startswith("CommunicationError")
        assert not world.domain("A").wal.of_kind("tx_completed")
        assert world.restart("B") is None
        assert world.quiesce()
        assert world.total_committed() == world.expected_total()
