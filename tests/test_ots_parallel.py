"""Parallel participant fan-out in 2PC (``parallel_participants`` knob)."""

import threading
import time

import pytest

from repro.config import FactoryConfig
from repro.exceptions import CommunicationError
from repro.ots import SimulatedCrash, TransactionFactory
from repro.ots.exceptions import HeuristicHazard, TransactionRolledBack
from repro.ots.status import TransactionStatus, Vote

pytestmark = pytest.mark.usefixtures("shutdown_participant_pools")


class Participant:
    """Scriptable two-phase participant with call recording."""

    def __init__(self, vote=Vote.COMMIT, prepare_delay=0.0, commit_error=None):
        self.vote = vote
        self.prepare_delay = prepare_delay
        self.commit_error = commit_error
        self.calls = []
        self._lock = threading.Lock()

    def _record(self, operation):
        with self._lock:
            self.calls.append(operation)

    def prepare(self):
        if self.prepare_delay:
            time.sleep(self.prepare_delay)
        self._record("prepare")
        return self.vote

    def commit(self):
        self._record("commit")
        if self.commit_error is not None:
            raise self.commit_error

    def rollback(self):
        self._record("rollback")

    def forget(self):
        self._record("forget")


def run_commit(factory, participants):
    tx = factory.create()
    for index, participant in enumerate(participants):
        tx.register_resource(participant, recovery_key=f"r{index}")
    tx.commit()
    return tx


class TestParallelCommitPath:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            TransactionFactory(config=FactoryConfig(parallel_participants=0))

    def test_all_commit_matches_serial_log(self):
        outcomes = {}
        for workers in (1, 8):
            factory = TransactionFactory(
                config=FactoryConfig(parallel_participants=workers),
            )
            factory.event_log.attach()
            participants = [Participant() for _ in range(8)]
            run_commit(factory, participants)
            assert factory.committed == 1
            for participant in participants:
                assert participant.calls == ["prepare", "commit"]
            outcomes[workers] = [
                (event.kind, event.detail.get("vote"))
                for event in factory.event_log
                if event.kind in ("tx_vote", "tx_finished")
            ]
        assert outcomes[8] == outcomes[1]

    def test_parallel_prepares_overlap(self):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=8))
        participants = [Participant(prepare_delay=0.05) for _ in range(8)]
        begin = time.perf_counter()
        run_commit(factory, participants)
        elapsed = time.perf_counter() - begin
        # Serial would pay 8 × 50 ms in phase one alone.
        assert elapsed < 0.3

    def test_no_vote_rolls_back_concurrently_prepared(self):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=8))
        participants = [
            Participant(vote=Vote.ROLLBACK if i == 3 else Vote.COMMIT)
            for i in range(8)
        ]
        tx = factory.create()
        for index, participant in enumerate(participants):
            tx.register_resource(participant, recovery_key=f"r{index}")
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert factory.rolled_back == 1
        for participant in participants:
            if "prepare" in participant.calls and participant.vote is Vote.COMMIT:
                # Anyone who prepared successfully must be told to undo.
                assert "rollback" in participant.calls
            assert "commit" not in participant.calls

    def test_unreachable_committer_becomes_heuristic_hazard(self):
        factory = TransactionFactory(
            config=FactoryConfig(parallel_participants=4, retry_attempts=2),
        )
        participants = [Participant() for _ in range(3)]
        participants[1].commit_error = CommunicationError("gone", transient=False)
        tx = factory.create()
        for index, participant in enumerate(participants):
            tx.register_resource(participant, recovery_key=f"r{index}")
        with pytest.raises(HeuristicHazard):
            tx.commit()
        assert factory.committed == 1  # decision stands despite the hazard
        assert participants[0].calls == ["prepare", "commit"]
        assert participants[2].calls == ["prepare", "commit"]

    def test_failpoint_fires_before_parallel_prepare(self):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))
        participants = [Participant() for _ in range(4)]
        factory.failpoints.arm("before_prepare")
        tx = factory.create()
        for participant in participants:
            tx.register_resource(participant, recovery_key="r")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        for participant in participants:
            assert participant.calls == []

    def test_composes_with_group_commit_window(self):
        factory = TransactionFactory(
            config=FactoryConfig(parallel_participants=4, group_commit_window=0.001),
        )
        errors = []

        def committer():
            try:
                run_commit(factory, [Participant() for _ in range(4)])
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=committer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert factory.committed == 6
        # Both knobs active: every commit forced its decision, and the
        # unforced completions rode along (the last few wait for a force).
        assert 6 <= factory.wal.records_forced <= 12
        factory.wal.force()
        assert factory.wal.records_forced == 12
        assert len(factory.wal.of_kind("tx_completed")) == 6


class TestParallelCrashFidelity:
    """Parallel phases must keep the serial crash states reachable."""

    def test_prefix_committed_crash_state_reachable(self):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))
        participants = [Participant() for _ in range(4)]
        factory.failpoints.arm("before_commit_resource_2")
        tx = factory.create()
        for index, participant in enumerate(participants):
            tx.register_resource(participant, recovery_key=f"r{index}")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # Resources before the armed index committed; the rest never did.
        assert participants[0].calls == ["prepare", "commit"]
        assert participants[1].calls == ["prepare", "commit"]
        assert participants[2].calls == ["prepare"]
        assert participants[3].calls == ["prepare"]
        # The decision was forced, so recovery can finish phase two.
        kinds = [record.kind for record in factory.wal.records()]
        assert "tx_commit_decision" in kinds
        assert "tx_completed" not in kinds


class TestSharedPoolReuse:
    def test_pool_reused_across_transactions(self):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))
        run_commit(factory, [Participant() for _ in range(4)])
        pool = factory.executor.pool
        run_commit(factory, [Participant() for _ in range(4)])
        assert factory.executor.pool is pool
        factory.shutdown_participant_pool()
        factory.shutdown_participant_pool()  # idempotent

    def test_nested_commit_from_participant_runs_serially(self):
        """A participant committing another transaction through the same
        factory must not deadlock on the shared pool."""
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=2))

        class NestingParticipant(Participant):
            def prepare(self):
                inner = factory.create()
                inner.register_resource(Participant(), recovery_key="i1")
                inner.register_resource(Participant(), recovery_key="i2")
                inner.commit()
                return super().prepare()

        participants = [NestingParticipant(), NestingParticipant()]
        run_commit(factory, participants)
        assert factory.committed == 3


class TestCrashDraining:
    def test_crash_in_prepare_drains_in_flight_prepares(self):
        """A SimulatedCrash from one participant propagates only after
        in-flight sibling prepares finished — recovery must not race
        background workers still mutating stores."""
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))

        class CrashingParticipant(Participant):
            def prepare(self):
                raise SimulatedCrash("participant died in prepare")

        participants = [
            Participant(prepare_delay=0.05),
            CrashingParticipant(),
            Participant(prepare_delay=0.05),
            Participant(prepare_delay=0.05),
        ]
        tx = factory.create()
        for index, participant in enumerate(participants):
            tx.register_resource(participant, recovery_key=f"r{index}")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        # Every sibling prepare that was dispatched has fully completed.
        for participant in (participants[0], participants[2], participants[3]):
            assert participant.calls == ["prepare"]


class TestBuggyParticipants:
    def test_prepare_returning_none_fails_loudly(self):
        """A prepare() that returns nothing must fail like the serial
        sweep does — never be mistaken for 'not asked' and committed."""

        class ForgetfulParticipant(Participant):
            def prepare(self):
                self._record("prepare")
                return None  # bug: no vote

        for workers in (1, 4):
            factory = TransactionFactory(
                config=FactoryConfig(parallel_participants=workers),
            )
            tx = factory.create()
            tx.register_resource(Participant(), recovery_key="r0")
            tx.register_resource(ForgetfulParticipant(), recovery_key="r1")
            tx.register_resource(Participant(), recovery_key="r2")
            with pytest.raises(AttributeError):
                tx.commit()
            assert factory.committed == 0


class TestUnknownCommitFailure:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_raises_at_once_and_redrive_finishes(self, workers):
        """A commit failure that is neither heuristic nor a communication
        error stops phase two where it happened, under either engine:
        the transaction stays COMMITTING until redrive() finishes it."""
        factory = TransactionFactory(
            config=FactoryConfig(parallel_participants=workers),
        )
        participants = [Participant() for _ in range(3)]
        participants[0].commit_error = RuntimeError("store rejected the install")
        tx = factory.create()
        for index, participant in enumerate(participants):
            tx.register_resource(participant, recovery_key=f"r{index}")
        with pytest.raises(RuntimeError, match="store rejected"):
            tx.commit()
        assert tx.status is TransactionStatus.COMMITTING
        assert not any(record.completed for record in tx.resources)
        participants[0].commit_error = None
        assert tx.redrive() is True
        assert tx.status is TransactionStatus.COMMITTED
        assert all(participant.calls[-1] == "commit" for participant in participants)
        factory.shutdown_participant_pool()
