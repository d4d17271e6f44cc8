"""Unit tests for flat transactions: 2PC, votes, synchronizations, facades."""

import pytest

from repro.ots import (
    Control,
    Inactive,
    Resource,
    Synchronization,
    TransactionFactory,
    TransactionRolledBack,
    TransactionStatus,
    Vote,
)


class FakeResource(Resource):
    def __init__(self, vote=Vote.COMMIT, name="r"):
        self.vote = vote
        self.name = name
        self.events = []

    def prepare(self):
        self.events.append("prepare")
        return self.vote

    def commit(self):
        self.events.append("commit")

    def rollback(self):
        self.events.append("rollback")

    def commit_one_phase(self):
        self.events.append("commit_one_phase")

    def forget(self):
        self.events.append("forget")


class FakeSync(Synchronization):
    def __init__(self, fail_before=False):
        self.fail_before = fail_before
        self.events = []

    def before_completion(self):
        self.events.append("before")
        if self.fail_before:
            raise RuntimeError("veto")

    def after_completion(self, status):
        self.events.append(("after", status))


@pytest.fixture
def factory():
    return TransactionFactory()


class TestFlatCommit:
    def test_empty_transaction_commits(self, factory):
        tx = factory.create()
        tx.commit()
        assert tx.status is TransactionStatus.COMMITTED

    def test_two_resources_two_phase(self, factory):
        tx = factory.create()
        r1, r2 = FakeResource(), FakeResource()
        tx.register_resource(r1)
        tx.register_resource(r2)
        tx.commit()
        assert r1.events == ["prepare", "commit"]
        assert r2.events == ["prepare", "commit"]
        assert tx.status is TransactionStatus.COMMITTED

    def test_single_resource_one_phase_optimisation(self, factory):
        tx = factory.create()
        resource = FakeResource()
        tx.register_resource(resource)
        tx.commit()
        assert resource.events == ["commit_one_phase"]

    def test_rollback_vote_aborts_all(self, factory):
        tx = factory.create()
        r1 = FakeResource()
        r2 = FakeResource(vote=Vote.ROLLBACK)
        r3 = FakeResource()
        for resource in (r1, r2, r3):
            tx.register_resource(resource)
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert r1.events == ["prepare", "rollback"]
        assert r2.events == ["prepare"], "no-voter is not told to roll back"
        assert r3.events == [], "prepare stops at the first no-vote"

    def test_readonly_voters_skip_phase_two(self, factory):
        tx = factory.create()
        reader = FakeResource(vote=Vote.READONLY)
        writer = FakeResource()
        tx.register_resource(reader)
        tx.register_resource(writer)
        tx.commit()
        assert reader.events == ["prepare"]
        assert writer.events == ["prepare", "commit"]

    def test_all_readonly_commits_without_log(self, factory):
        tx = factory.create()
        tx.register_resource(FakeResource(vote=Vote.READONLY))
        tx.register_resource(FakeResource(vote=Vote.READONLY))
        tx.commit()
        assert len(factory.wal.of_kind("tx_commit_decision")) == 0

    def test_commit_decision_logged_before_phase_two(self, factory):
        tx = factory.create()
        tx.register_resource(FakeResource(), recovery_key="a")
        tx.register_resource(FakeResource(), recovery_key="b")
        tx.commit()
        # Only the decision is forced; the completion record rides the
        # next force (here: by hand).
        assert [record.kind for record in factory.wal.records()] == ["tx_commit_decision"]
        assert factory.wal.forces == 1
        factory.wal.force()
        kinds = [record.kind for record in factory.wal.records()]
        assert kinds == ["tx_commit_decision", "tx_completed"]
        decision = factory.wal.records()[0]
        assert decision.payload["recovery_keys"] == ["a", "b"]

    def test_failing_prepare_counts_as_no_vote(self, factory):
        class Exploding(FakeResource):
            def prepare(self):
                raise RuntimeError("disk on fire")

        tx = factory.create()
        tx.register_resource(FakeResource())
        tx.register_resource(Exploding())
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert tx.status is TransactionStatus.ROLLED_BACK


class TestRollback:
    def test_explicit_rollback(self, factory):
        tx = factory.create()
        resource = FakeResource()
        tx.register_resource(resource)
        tx.rollback()
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert resource.events == ["rollback"]

    def test_rollback_only_latches(self, factory):
        tx = factory.create()
        tx.rollback_only()
        assert tx.status is TransactionStatus.MARKED_ROLLBACK
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert tx.status is TransactionStatus.ROLLED_BACK

    def test_terminal_transaction_rejects_operations(self, factory):
        tx = factory.create()
        tx.commit()
        with pytest.raises(Inactive):
            tx.commit()
        with pytest.raises(Inactive):
            tx.rollback()
        with pytest.raises(Inactive):
            tx.register_resource(FakeResource())
        with pytest.raises(Inactive):
            tx.rollback_only()


class TestSynchronizations:
    def test_before_and_after_run(self, factory):
        tx = factory.create()
        sync = FakeSync()
        tx.register_synchronization(sync)
        tx.register_resource(FakeResource())
        tx.register_resource(FakeResource())
        tx.commit()
        assert sync.events[0] == "before"
        assert sync.events[1] == ("after", TransactionStatus.COMMITTED)

    def test_before_failure_forces_rollback(self, factory):
        tx = factory.create()
        sync = FakeSync(fail_before=True)
        resource = FakeResource()
        tx.register_synchronization(sync)
        tx.register_resource(resource)
        tx.register_resource(FakeResource())
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert resource.events == ["rollback"]
        assert ("after", TransactionStatus.ROLLED_BACK) in sync.events

    def test_after_runs_on_rollback(self, factory):
        tx = factory.create()
        sync = FakeSync()
        tx.register_synchronization(sync)
        tx.rollback()
        assert sync.events == [("after", TransactionStatus.ROLLED_BACK)]


class TestIdentityAndFacades:
    def test_identity(self, factory):
        t1, t2 = factory.create(), factory.create()
        assert t1.is_same_transaction(t1)
        assert not t1.is_same_transaction(t2)
        assert t1.hash_transaction() != t2.hash_transaction() or True  # stable int
        assert isinstance(t1.hash_transaction(), int)

    def test_names(self, factory):
        named = factory.create(name="checkout")
        anonymous = factory.create()
        assert named.get_transaction_name() == "checkout"
        assert anonymous.get_transaction_name() == anonymous.tid

    def test_control_facade(self, factory):
        tx = factory.create()
        control = Control(tx)
        coordinator = control.get_coordinator()
        terminator = control.get_terminator()
        assert coordinator.get_status() is TransactionStatus.ACTIVE
        resource = FakeResource()
        coordinator.register_resource(resource)
        terminator.commit()
        assert resource.events == ["commit_one_phase"]

    def test_coordinator_is_same_transaction(self, factory):
        tx = factory.create()
        c1 = Control(tx).get_coordinator()
        c2 = Control(tx).get_coordinator()
        assert c1.is_same_transaction(c2)

    def test_factory_counters(self, factory):
        tx1 = factory.create()
        tx2 = factory.create()
        tx1.commit()
        tx2.rollback()
        assert factory.created == 2
        assert factory.committed == 1
        assert factory.rolled_back == 1

    def test_registry_get_and_forget(self, factory):
        tx = factory.create()
        assert factory.get(tx.tid) is tx
        assert factory.knows(tx.tid)
        tx.commit()
        assert factory.forget_completed() == 1
        assert not factory.knows(tx.tid)

    def test_event_log_records_lifecycle(self, factory):
        factory.event_log.attach()
        tx = factory.create()
        tx.commit()
        kinds = factory.event_log.kinds()
        assert "tx_begin" in kinds
        assert "tx_finished" in kinds
