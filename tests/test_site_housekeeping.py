"""A site daemon's serve loop runs the domain's whole housekeeping round.

Two duties the loop used to skip, each checked on an in-process
:class:`SiteRuntime` serving in the background:

- a commit whose decision force failed is left ``PREPARED`` and decided
  (it may yet be durable, so it can neither roll back nor report
  success); the loop must redrive it to ``COMMITTED`` without a restart;
- finished transactions leave the factory's registry, while the
  domain's recovery servant still answers a superior's status query for
  a forgotten root from the log.

The loop runs beside the threads completing transactions, so it must
redrive only what is stranded, never a completion still in flight.
"""

import threading

import pytest

import repro.orb.site
from repro.orb.site import SiteConfig, SiteRuntime
from repro.ots.interposition import FederationRecoveryServant
from repro.ots.resource import Resource
from repro.ots.status import TransactionStatus, Vote
from repro.persistence.object_store import MemoryStore, StoreError


class FailingPutStore(MemoryStore):
    """A log medium whose next ``put`` raises (the force fails)."""

    fail_next = False

    def put(self, uid, state):
        if self.fail_next:
            self.fail_next = False
            raise StoreError("log device error")
        super().put(uid, state)


class CountingResource(Resource):
    """Counts its phase-two calls; with a ``gate``, its commit blocks
    until the gate opens (a slow participant mid phase two)."""

    def __init__(self, gate=None):
        self.gate = gate
        self.entered = threading.Event()
        self.commits = self.rollbacks = 0

    def prepare(self):
        return Vote.COMMIT

    def commit(self):
        self.commits += 1
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(5.0)

    def rollback(self):
        self.rollbacks += 1


def wait_for(predicate, timeout=10.0):
    waiter = threading.Event()
    for _ in range(int(timeout / 0.02)):
        if predicate():
            return True
        waiter.wait(0.02)
    return predicate()


@pytest.fixture
def runtime(monkeypatch):
    monkeypatch.setattr(repro.orb.site, "MemoryStore", FailingPutStore)
    site = SiteRuntime(
        SiteConfig(site_id="solo", poll_interval=0.05, heartbeat={"enabled": False})
    )
    site.serve_in_background()
    try:
        assert site.wait_recovered()
        yield site
    finally:
        site.stop()


def commit_pair(runtime, cells, values):
    tx = runtime.factory.create()
    for cell, value in zip(cells, values):
        cell.write(tx, value)
    tx.commit()
    return tx


def test_serve_loop_redrives_a_commit_whose_decision_force_failed(runtime):
    a, b = runtime.cell("a", 0), runtime.cell("b", 0)
    tx = runtime.factory.create()
    a.write(tx, 1)
    b.write(tx, 2)
    runtime.wal.store.fail_next = True
    with pytest.raises(StoreError):
        tx.commit()
    assert tx.decided and tx.status in (
        TransactionStatus.PREPARED,
        TransactionStatus.COMMITTED,  # the loop may already have redriven it
    )

    assert wait_for(lambda: tx.status is TransactionStatus.COMMITTED, timeout=2.0)
    assert (a.committed_value, b.committed_value) == (1, 2)
    assert not a.is_locked() and not b.is_locked()
    assert runtime.recovery_error is None


def test_serve_loop_forgets_finished_transactions(runtime):
    a, b = runtime.cell("a", 0), runtime.cell("b", 0)
    tids = [commit_pair(runtime, (a, b), (n, -n)).tid for n in range(50)]
    rolled_back = runtime.factory.create()
    a.write(rolled_back, 99)
    rolled_back.rollback()

    assert wait_for(
        lambda: not any(runtime.factory.knows(t) for t in [*tids, rolled_back.tid]),
        timeout=2.0,
    )
    assert (a.committed_value, b.committed_value) == (49, -49)
    # A superior's status query for a forgotten root falls back to the log.
    servant = FederationRecoveryServant(runtime.service)
    assert servant.transaction_status(tids[0]) is TransactionStatus.COMMITTED
    assert servant.transaction_status(tids[-1]) is TransactionStatus.COMMITTED
    assert servant.transaction_status(rolled_back.tid) is TransactionStatus.ROLLED_BACK


def test_serve_loop_leaves_an_in_flight_commit_to_its_thread(runtime, monkeypatch):
    rounds = []
    redrive_stuck = runtime.factory.redrive_stuck
    monkeypatch.setattr(
        runtime.factory, "redrive_stuck", lambda: rounds.append(1) or redrive_stuck()
    )
    gate = threading.Event()
    slow, other = CountingResource(gate), CountingResource()
    tx = runtime.factory.create()
    tx.register_resource(slow)
    tx.register_resource(other)
    committed = runtime.factory.committed
    worker = threading.Thread(target=tx.commit)
    worker.start()
    try:
        assert slow.entered.wait(2.0)
        assert tx.status is TransactionStatus.COMMITTING
        seen = len(rounds)
        looped = wait_for(lambda: len(rounds) >= seen + 3, timeout=2.0)
    finally:
        gate.set()
        worker.join(5.0)

    assert tx.status is TransactionStatus.COMMITTED
    assert (slow.commits, other.commits) == (1, 1)
    assert looped  # the loop kept running while the commit was in flight
    assert (slow.rollbacks, other.rollbacks) == (0, 0)
    assert runtime.factory.committed == committed + 1
    assert runtime.recovery_error is None
