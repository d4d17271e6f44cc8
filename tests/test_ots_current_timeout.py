"""OTS Current (thread association), propagation over the ORB, timeouts."""

import pytest

from repro.orb import Orb
from repro.orb.core import Servant
from repro.ots import (
    InvalidTransaction,
    NoTransaction,
    TransactionCurrent,
    TransactionFactory,
    TransactionRolledBack,
    TransactionStatus,
    TransactionalCell,
    install_transaction_service,
)
from repro.util.clock import Clock, SimulatedClock


@pytest.fixture
def factory():
    return TransactionFactory()


@pytest.fixture
def current(factory):
    return TransactionCurrent(factory)


class TestCurrent:
    def test_begin_commit(self, current):
        tx = current.begin()
        assert current.get_transaction() is tx
        assert current.get_status() is TransactionStatus.ACTIVE
        current.commit()
        assert current.get_transaction() is None
        assert current.get_status() is TransactionStatus.NO_TRANSACTION

    def test_begin_nested(self, current):
        top = current.begin()
        child = current.begin()
        assert child.parent is top
        assert current.depth == 2
        current.commit()
        assert current.get_transaction() is top

    def test_commit_without_transaction(self, current):
        with pytest.raises(NoTransaction):
            current.commit()

    def test_rollback_without_transaction(self, current):
        with pytest.raises(NoTransaction):
            current.rollback()

    def test_rollback_only_marks(self, current):
        current.begin()
        current.rollback_only()
        with pytest.raises(TransactionRolledBack):
            current.commit()
        assert current.get_transaction() is None, "association cleared"

    def test_suspend_resume(self, current):
        tx = current.begin()
        suspended = current.suspend()
        assert suspended is tx
        assert current.get_transaction() is None
        current.resume(suspended)
        assert current.get_transaction() is tx
        current.commit()

    def test_suspend_empty_returns_none(self, current):
        assert current.suspend() is None
        current.resume(None)  # tolerated

    def test_resume_completed_rejected(self, current):
        tx = current.begin()
        current.commit()
        with pytest.raises(InvalidTransaction):
            current.resume(tx)

    def test_resume_garbage_rejected(self, current):
        with pytest.raises(InvalidTransaction):
            current.resume("not a transaction")

    def test_get_control(self, current):
        assert current.get_control() is None
        current.begin()
        control = current.get_control()
        assert control.get_coordinator().get_status() is TransactionStatus.ACTIVE
        current.rollback()


class TestPropagation:
    @pytest.fixture
    def deployment(self, factory):
        orb = Orb()
        current = TransactionCurrent(factory)
        install_transaction_service(orb, current)
        node = orb.create_node("server")
        return orb, node, current

    def test_servant_sees_callers_transaction(self, deployment, factory):
        orb, node, current = deployment

        class TxProbe(Servant):
            def observe(self):
                tx = current.get_transaction()
                return tx.tid if tx else None

        ref = node.activate(TxProbe())
        tx = current.begin()
        assert ref.invoke("observe") == tx.tid
        current.commit()
        assert ref.invoke("observe") is None

    def test_association_restored_after_dispatch(self, deployment):
        orb, node, current = deployment

        class Noop(Servant):
            def run(self):
                return True

        ref = node.activate(Noop())
        tx = current.begin()
        ref.invoke("run")
        assert current.get_transaction() is tx
        current.commit()

    def test_association_restored_after_remote_exception(self, deployment):
        orb, node, current = deployment

        class Failing(Servant):
            def run(self):
                raise RuntimeError("server-side failure")

        ref = node.activate(Failing())
        tx = current.begin()
        with pytest.raises(Exception):
            ref.invoke("run")
        assert current.get_transaction() is tx
        current.rollback()

    def test_servant_work_joins_transaction(self, deployment, factory):
        orb, node, current = deployment
        cell = TransactionalCell("remote-cell", 0, factory)

        class Writer(Servant):
            def bump(self):
                tx = current.get_transaction()
                cell.write(tx, cell.read(tx) + 1)
                return cell.read(tx)

        ref = node.activate(Writer())
        current.begin()
        assert ref.invoke("bump") == 1
        assert ref.invoke("bump") == 2
        assert cell.read() == 0, "uncommitted so far"
        current.commit()
        assert cell.read() == 2

    def test_rollback_undoes_remote_work(self, deployment, factory):
        orb, node, current = deployment
        cell = TransactionalCell("remote-cell-2", 0, factory)

        class Writer(Servant):
            def bump(self):
                tx = current.get_transaction()
                cell.write(tx, cell.read(tx) + 1)

        ref = node.activate(Writer())
        current.begin()
        ref.invoke("bump")
        current.rollback()
        assert cell.read() == 0


class ManualClock(Clock):
    """A clock that moves only when told to and fires nothing itself."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        self.time += seconds


class TestTimeouts:
    def test_deadline_expiry_via_timer(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        tx = factory.create(timeout=10.0)
        clock.advance(11.0)
        assert tx.status is TransactionStatus.ROLLED_BACK

    def test_commit_before_deadline_fine(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        tx = factory.create(timeout=10.0)
        clock.advance(5.0)
        tx.commit()
        assert tx.status is TransactionStatus.COMMITTED

    def test_expire_timeouts_sweep(self):
        clock = ManualClock()
        factory = TransactionFactory(clock=clock)
        # A clock that fires no timers: the deadline is policed only by
        # the factory's own sweep.
        tx = factory.create(timeout=5.0)
        clock.time = 6.0
        expired = factory.expire_timeouts()
        assert expired == [tx.tid]
        assert tx.status is TransactionStatus.ROLLED_BACK

    def test_commit_after_deadline_rolls_back(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        tx = factory.create(timeout=5.0)
        clock._now = 6.0
        with pytest.raises(TransactionRolledBack):
            tx.commit()

    def test_no_timeout_never_expires(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        tx = factory.create()
        clock.advance(10_000)
        assert factory.expire_timeouts() == []
        assert tx.status is TransactionStatus.ACTIVE
