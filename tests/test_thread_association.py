"""Every ``Current`` is associated per thread.

``TransactionCurrent``, ``ActivityCurrent`` and the ORB's
``InvocationCurrent`` each keep one stack per thread, so concurrent
callers never commit, complete or pop each other's work.  A pool worker
runs each submitted call in the submitting thread's associations, so a
parallel fan-out sends exactly what the serial one sends.

Under test: a hammer of N threads transferring through one site's
``TransferDesk`` over disjoint and over crossed account pairs (money is
conserved, no ``Inactive`` is raised, nothing hangs; crossed pairs may
abort with ``LockConflict`` because the lock manager never waits), and
parallel against serial signal broadcasts and 2PC phases, which must see
the same propagated contexts.
"""

import sys
import threading

import pytest

from repro.apps.site_apps import BankAccount, bank_node_id
from repro.config import FactoryConfig
from repro.core import (
    ActivityManager,
    BroadcastSignalSet,
    Outcome,
    SerialBroadcastExecutor,
    ThreadPoolBroadcastExecutor,
    received_context,
)
from repro.orb import Orb
from repro.orb.core import RemoteApplicationError, Servant
from repro.orb.site import SiteConfig, SiteRuntime
from repro.ots import LockConflict, TransactionCurrent, TransactionFactory
from repro.ots.propagation import install_transaction_service
from repro.ots.status import Vote
from repro.util.workers import ReentrantWorkerPool, ThreadAssociation

OPENING = 100.0
TRANSFERS = 25  # per thread
WATCHDOG_S = 60.0


def is_lock_conflict(exc):
    """A conflict on the local leg, or on the deposit leg (revived)."""
    return isinstance(exc, LockConflict) or (
        isinstance(exc, RemoteApplicationError) and exc.type_name == "LockConflict"
    )


@pytest.fixture
def desk_site():
    runtime = SiteRuntime(
        SiteConfig(site_id="desk", app="repro.apps.site_apps:transfer_desk_site")
    )
    yield runtime
    runtime.stop()
    runtime.transport.close()


def hammer(runtime, pairs):
    """One thread per (source, target) pair; returns (committed, errors)."""
    node_id = bank_node_id("desk")
    node = runtime.orb.node(node_id)
    accounts = sorted({key for pair in pairs for key in pair})
    for key in accounts:
        node.activate(BankAccount(runtime, key, OPENING), object_id=key)
    desk = node.servant("desk")
    committed = [0] * len(pairs)
    errors = [[] for _ in pairs]

    def run(index):
        source, target = pairs[index]
        for _ in range(TRANSFERS):
            try:
                desk.transfer(source, node_id, target, 1.0)
                committed[index] += 1
            except Exception as exc:  # noqa: BLE001 - classified below
                errors[index].append(exc)

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: interleave the calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WATCHDOG_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "hammer hung"
    total = sum(node.servant(key).balance() for key in accounts)
    assert total == OPENING * len(accounts)
    assert runtime.current.get_transaction() is None
    return committed, [exc for per_thread in errors for exc in per_thread]


class TestTransferHammer:
    @pytest.mark.parametrize("threads", [4, 8])
    def test_disjoint_pairs_all_commit(self, desk_site, threads):
        pairs = [(f"h{2 * i}", f"h{2 * i + 1}") for i in range(threads)]
        committed, errors = hammer(desk_site, pairs)
        assert errors == []
        assert committed == [TRANSFERS] * threads
        for source, target in pairs:
            node = desk_site.orb.node(bank_node_id("desk"))
            assert node.servant(source).balance() == OPENING - TRANSFERS
            assert node.servant(target).balance() == OPENING + TRANSFERS

    @pytest.mark.parametrize("threads", [4, 8])
    def test_crossed_pairs_only_abort_on_lock_conflicts(self, desk_site, threads):
        # Each account is the source of one thread and the target of another.
        pairs = [(f"h{i}", f"h{(i + 1) % threads}") for i in range(threads)]
        committed, errors = hammer(desk_site, pairs)
        assert all(is_lock_conflict(exc) for exc in errors), errors
        assert sum(committed) + len(errors) == threads * TRANSFERS


class TestAssociationIsPerThread:
    def test_another_thread_sees_none_of_this_threads_associations(self):
        orb = Orb()
        factory = TransactionFactory(clock=orb.clock)
        current = TransactionCurrent(factory)
        manager = ActivityManager(clock=orb.clock)
        tx = current.begin()
        activity = manager.current.begin("job")
        orb.current.push_frame({"node": "n1"})
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(
                (
                    current.get_transaction(),
                    manager.current.current_activity(),
                    orb.current.get_slot("node"),
                    orb.current.depth,
                )
            )
        )
        thread.start()
        thread.join()
        assert seen == [(None, None, None, 1)]
        assert current.get_transaction() is tx
        assert manager.current.current_activity() is activity
        assert orb.current.get_slot("node") == "n1"

    def test_a_worker_runs_in_the_submitters_association_then_gets_its_own_back(self):
        association = ThreadAssociation()
        pool = ReentrantWorkerPool(1)
        try:
            association.stack.append("caller")
            # The worker sees a copy of the caller's stack as it was at
            # submission; what the call pushes stays in that copy.
            assert pool.submit(lambda: association.stack.append("pushed")).result() is None
            assert association.stack == ["caller"]
            assert pool.submit(lambda: list(association.stack)).result() == ["caller"]
            # A thread that never touched the association submits: the
            # worker runs in its own association again, not the last copy.
            seen = []
            submitter = threading.Thread(
                target=lambda: seen.append(pool.submit(lambda: list(association.stack)).result())
            )
            submitter.start()
            submitter.join()
            assert seen == [[]]
        finally:
            pool.shutdown(wait=True)


class ContextProbe(Servant):
    """Records the propagated activity context and transaction per call."""

    def __init__(self, orb, tx_current=None):
        self.orb = orb
        self.tx_current = tx_current
        self.seen = []

    def process_signal(self, signal):
        context = received_context(self.orb)
        self.seen.append((signal.signal_name, context.activity_id if context else None))
        return Outcome.done()

    def _tx_call(self, operation):
        tx = self.tx_current.get_transaction()
        self.seen.append((operation, tx.tid if tx is not None else None))

    def prepare(self):
        self._tx_call("prepare")
        return Vote.COMMIT

    def commit(self):
        self._tx_call("commit")

    def rollback(self):
        self._tx_call("rollback")

    def forget(self):
        self._tx_call("forget")


class TestParallelFanOutsSendWhatSerialOnesSend:
    def broadcast(self, executor):
        orb = Orb()
        manager = ActivityManager(clock=orb.clock, executor=executor)
        manager.install(orb)
        probes = [ContextProbe(orb) for _ in range(6)]
        activity = manager.current.begin("fan-out")
        for index, probe in enumerate(probes):
            activity.add_action("notify", orb.create_node(f"n{index}").activate(probe))
        activity.register_signal_set(BroadcastSignalSet("go", signal_set_name="notify"))
        activity.signal("notify")
        manager.current.complete()
        return activity.activity_id, [probe.seen for probe in probes]

    def test_broadcasts_see_the_same_received_context(self):
        serial_id, serial = self.broadcast(SerialBroadcastExecutor())
        executor = ThreadPoolBroadcastExecutor(max_workers=4)
        try:
            parallel_id, parallel = self.broadcast(executor)
        finally:
            executor.shutdown()
        assert serial_id == parallel_id
        assert parallel == serial == [[("go", serial_id)]] * 6

    def two_phase(self, parallel):
        orb = Orb()
        factory = TransactionFactory(
            clock=orb.clock, config=FactoryConfig(parallel_participants=parallel)
        )
        current = TransactionCurrent(factory)
        install_transaction_service(orb, current)
        probes = [ContextProbe(orb, current) for _ in range(5)]
        tx = current.begin()
        for index, probe in enumerate(probes):
            tx.register_resource(
                orb.create_node(f"n{index}").activate(probe), recovery_key=f"r{index}"
            )
        current.commit()
        factory.shutdown_participant_pool()
        return tx.tid, [probe.seen for probe in probes]

    def test_2pc_phases_see_the_same_transaction(self):
        serial_tid, serial = self.two_phase(1)
        parallel_tid, parallel = self.two_phase(4)
        assert serial_tid == parallel_tid
        assert parallel == serial
        assert serial == [[("prepare", serial_tid), ("commit", serial_tid)]] * 5
