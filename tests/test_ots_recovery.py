"""OTS crash recovery: fail-points, WAL replay, presumed abort, heuristics."""

import pytest

from repro.ots import (
    HeuristicHazard,
    HeuristicMixed,
    HeuristicRollback,
    RecoverableRegistry,
    RecoveryManager,
    Resource,
    SimulatedCrash,
    TransactionFactory,
    TransactionalCell,
    TransactionStatus,
    Vote,
)
from repro.persistence import MemoryStore, WriteAheadLog


@pytest.fixture
def env():
    class Env:
        def __init__(self):
            self.stable = MemoryStore()
            self.wal = WriteAheadLog(self.stable, "txlog")
            self.factory = TransactionFactory(wal=self.wal)
            self.registry = RecoverableRegistry()
            self.cell_store = MemoryStore()

        def cell(self, key, initial):
            return TransactionalCell(
                key, initial, self.factory, store=self.cell_store,
                registry=self.registry,
            )

        def recover(self):
            return RecoveryManager(self.wal.reopen(), self.registry).recover()

    return Env()


class TestFailpoints:
    def test_crash_before_commit_log_presumes_abort(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("before_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        report = env.recover()
        assert report.recommitted == {}
        assert tx.tid in report.presumed_aborted
        assert a.read() == 0 and b.read() == 0

    def test_crash_after_commit_log_recommits_all(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        report = env.recover()
        assert sorted(report.recommitted[tx.tid]) == ["a", "b"]
        assert a.read() == 1 and b.read() == 2

    def test_crash_mid_phase_two_completes_remaining(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("before_commit_resource_1")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # Phase two's store write lands when the sweep ends, so a crash
        # between resources finds nothing installed yet (a real crash
        # mid-write: a prefix); both intentions are in the forced decision.
        assert env.cell_store.keys() == ()
        (decision,) = env.wal.records()
        assert decision.payload["intentions"] == {"a": [1, 1], "b": [1, 2]}
        report = env.recover()
        assert a.read() == 1 and b.read() == 2
        assert report.recommitted[tx.tid] == ["a", "b"]
        assert dict(env.cell_store.items()) == {"cell:a": [1, 1], "cell:b": [1, 2]}

    def test_recovery_is_idempotent(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        env.recover()
        second = env.recover()
        assert second.clean
        assert a.read() == 1 and b.read() == 2

    def test_failpoint_fires_once(self, env):
        env.factory.failpoints.arm("before_prepare")
        a = env.cell("a", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b = env.cell("b", 0)
        b.write(tx, 2)
        with pytest.raises(SimulatedCrash):
            tx.commit()
        assert env.factory.failpoints.fired == ["before_prepare"]
        # A new transaction passes the (now disarmed) point.
        tx2 = env.factory.create()
        a2 = env.cell("a2", 0)
        a2.write(tx2, 5)
        tx2.commit()
        assert a2.read() == 5

    def test_unresolved_recovery_key_reported(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # Simulate losing one cell's registration across the restart.
        fresh_registry = RecoverableRegistry()
        fresh_registry.register("a", a)
        report = RecoveryManager(env.wal.reopen(), fresh_registry).recover()
        assert report.unresolved_keys == ["b"]


class TestCellDurability:
    def test_committed_state_reloads_from_store(self, env):
        a = env.cell("a", 0)
        tx = env.factory.create()
        a.write(tx, 42)
        b = env.cell("b", 0)
        b.write(tx, 1)
        tx.commit()
        # A "restarted" cell over the same store sees the committed value.
        reloaded = TransactionalCell("a", 0, env.factory, store=env.cell_store)
        assert reloaded.read() == 42

    def test_prepared_state_survives_in_store(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        env.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # Rebuild both cells from stable storage (in-memory stage lost).
        registry = RecoverableRegistry()
        TransactionalCell("a", 0, env.factory, store=env.cell_store, registry=registry)
        TransactionalCell("b", 0, env.factory, store=env.cell_store, registry=registry)
        report = RecoveryManager(env.wal.reopen(), registry).recover()
        assert sorted(report.recommitted[tx.tid]) == ["a", "b"]
        assert registry.resolve("a").committed_value == 1
        assert registry.resolve("b").committed_value == 2

    def test_in_doubt_listing(self, env):
        a = env.cell("a", 0)
        b = env.cell("b", 0)
        tx = env.factory.create()
        a.write(tx, 1)
        b.write(tx, 1)
        env.factory.failpoints.arm("before_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        assert a.list_in_doubt() == [tx.tid]


class HeuristicResource(Resource):
    def __init__(self, raise_on_commit=None, raise_on_rollback=None):
        self.raise_on_commit = raise_on_commit
        self.raise_on_rollback = raise_on_rollback
        self.forgotten = False

    def prepare(self):
        return Vote.COMMIT

    def commit(self):
        if self.raise_on_commit:
            raise self.raise_on_commit

    def rollback(self):
        if self.raise_on_rollback:
            raise self.raise_on_rollback

    def forget(self):
        self.forgotten = True


class TestHeuristics:
    def test_heuristic_rollback_during_commit_reported_mixed(self, env):
        tx = env.factory.create()
        tx.register_resource(HeuristicResource())
        bad = HeuristicResource(raise_on_commit=HeuristicRollback("went back"))
        tx.register_resource(bad)
        with pytest.raises(HeuristicMixed):
            tx.commit()
        assert tx.status is TransactionStatus.COMMITTED
        assert bad.forgotten, "forget() must follow a reported heuristic"

    def test_heuristics_not_raised_when_not_requested(self, env):
        tx = env.factory.create()
        tx.register_resource(HeuristicResource())
        tx.register_resource(
            HeuristicResource(raise_on_commit=HeuristicRollback("x"))
        )
        tx.commit(report_heuristics=False)
        assert len(tx.heuristics) == 1

    def test_all_hazards_reported_as_hazard(self, env):
        from repro.exceptions import CommunicationError

        class Unreachable(HeuristicResource):
            def commit(self):
                raise CommunicationError("gone", transient=False)

        tx = env.factory.create()
        tx.register_resource(HeuristicResource())
        tx.register_resource(Unreachable())
        with pytest.raises(HeuristicHazard):
            tx.commit()

    def test_transient_failures_retried_then_succeed(self, env):
        from repro.exceptions import CommunicationError

        class Flaky(HeuristicResource):
            def __init__(self):
                super().__init__()
                self.attempts = 0

            def commit(self):
                self.attempts += 1
                if self.attempts < 3:
                    raise CommunicationError("blip", transient=True)

        flaky = Flaky()
        tx = env.factory.create()
        tx.register_resource(HeuristicResource())
        tx.register_resource(flaky)
        tx.commit()
        assert flaky.attempts == 3
